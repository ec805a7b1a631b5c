"""Mordell-Weil bookkeeping: the decomposition of a divisor class into
n * generator + torsion, derived once and kept as a `Derivation` record.

`derive` solves x_v = A_v^{-1} c(v, D) once per fiber with nonzero c(v, D)
and reads everything else off those solves: phi0(D).phi0(D) (quadratic
route) and phi0(D).phi0(s_o) (linear route, x_v[k - 1]) give n; the gamma
vectors are -x_v; gamma_bar gives their classes in the component groups
R_v^dual / R_v, read off c(v, D) through each fiber's Smith class rows.
Both kill the trivial lattice, so the image of a divisor equals the image
of its attached Mordell-Weil point, which is what makes torsion resolvable
from intersection data alone: the residual gamma_bar(D) - n * gamma_bar(s_o)
must be hit by exactly one torsion-table entry (or be zero).  The height
identity then fixes the bookkeeping s(D).O of the attached section.
`abel_jacobi_image` returns the record's point; the CLI renders the record.
Closed forms after Shioda, On the Mordell-Weil lattices (1990), section 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistentDataError
from .kodaira import AbelianGroup, incidence_class
from .nslattice import (
    DivisorProfile,
    FreeCoefficient,
    IntersectionTable,
    SectionProfile,
    SurfaceConfig,
    _free_coefficient,
    _gamma_tuple,
    _inverse_sum,
    _solves,
)


@dataclass(frozen=True)
class DualClassTuple:
    """One component-group element per reducible fiber, in config order."""

    groups: tuple[AbelianGroup, ...]
    parts: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.groups) != len(self.parts):
            raise ValueError("group/part length mismatch")
        object.__setattr__(
            self, "parts", tuple(g.reduce(p) for g, p in zip(self.groups, self.parts))
        )

    def __add__(self, other: "DualClassTuple") -> "DualClassTuple":
        return DualClassTuple(
            self.groups, tuple(g.add(a, b) for g, a, b in zip(self.groups, self.parts, other.parts))
        )

    def __sub__(self, other: "DualClassTuple") -> "DualClassTuple":
        return self + (-1) * other

    def __rmul__(self, k: int) -> "DualClassTuple":
        return DualClassTuple(self.groups, tuple(g.scale(k, p) for g, p in zip(self.groups, self.parts)))

    def is_zero(self) -> bool:
        return all(all(c == 0 for c in p) for p in self.parts)

    def __str__(self):
        return "(" + " | ".join(",".join(map(str, p)) if p else "0" for p in self.parts) + ")"


@dataclass(frozen=True)
class MWPoint:
    """n * P_o + torsion; torsion coordinates live in the configured
    Mordell-Weil torsion group, with the matched table entry's name."""

    free_coeff: int
    torsion: tuple[int, ...] = ()
    torsion_name: str | None = None

    def torsion_is_zero(self) -> bool:
        return all(c == 0 for c in self.torsion)

    def __str__(self):
        if self.torsion_is_zero():
            tors = "0"
        else:
            tors = self.torsion_name or "(" + ",".join(map(str, self.torsion)) + ")"
        if self.free_coeff == 0:
            return tors if tors != "0" else "O"
        return f"{self.free_coeff}*P_o + {tors}"


def gamma_bar(table: IntersectionTable, divisor: DivisorProfile | str) -> DualClassTuple:
    """Classes of the gamma vectors -A_v^{-1} c(v, D) in the product of the
    component groups, read straight off the incidence vectors c(v, D)."""
    d = table.divisor(divisor) if isinstance(divisor, str) else divisor
    fibers = [table.fiber_of(fid) for fid, _ in table.cfg.fibers]
    parts = tuple(
        incidence_class(data, d.c.get(fid) or (0,) * (data.m - 1))
        for (fid, _), data in zip(table.cfg.fibers, fibers)
    )
    return DualClassTuple(tuple(data.group for data in fibers), parts)


def gamma_bar_section(table: IntersectionTable, section: SectionProfile | str) -> DualClassTuple:
    """gamma_bar of a section, read directly off its component assignment."""
    s = table.section(section) if isinstance(section, str) else section
    groups = tuple(table.fiber_of(fid).group for fid, _ in table.cfg.fibers)
    return DualClassTuple(groups, _gamma_tuple(table.cfg, table.fibers, s.components))


@dataclass(frozen=True)
class TorsionElement:
    name: str | None  # None for the zero element
    coords: tuple[int, ...]
    classes: DualClassTuple

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __str__(self):
        return self.name or "0"


def resolve_torsion(table: IntersectionTable, divisor: DivisorProfile | str, n: int,
                    generator: SectionProfile | str) -> TorsionElement:
    """Match gamma_bar(D) - n * gamma_bar(s_o) against the torsion table."""
    target = gamma_bar(table, divisor) - n * gamma_bar_section(table, generator)
    return _match_torsion(table, target)


def _match_torsion(table: IntersectionTable, target: DualClassTuple) -> TorsionElement:
    group = table.cfg.torsion_group
    if target.is_zero():
        return TorsionElement(None, group.zero(), target)
    for spec, parts in zip(table.cfg.torsion_table, table.torsion_classes):
        if parts == target.parts:
            return TorsionElement(spec.name, group.reduce(spec.coords), target)
    raise InconsistentDataError(
        f"no torsion section realizes the dual class {target}; intersection data is"
        " inconsistent with the torsion table"
    )


@dataclass(frozen=True)
class Derivation:
    """Everything P_D = n * P_o + t is decided from, in one record."""

    free: FreeCoefficient  # n, n^2, sign route, <P_o, P_o>, phi0(D).phi0(D)
    gamma_vectors: tuple[tuple[Fraction, ...], ...]  # -A_v^{-1} c(v, D), config fiber order
    gamma_classes: DualClassTuple  # gamma_bar(D)
    torsion_residual: DualClassTuple  # gamma_bar(D) - n * gamma_bar(s_o)
    torsion: TorsionElement
    s_dot_o: int  # s(D).O of the attached section, from the height identity
    point: MWPoint


def derive(table: IntersectionTable, divisor: DivisorProfile | str,
           generator: SectionProfile | str) -> Derivation:
    """Full decomposition P_D = n * P_o + torsion of a divisor class.

    Runs both routes to n, resolves torsion, and verifies the section
    bookkeeping: the height identity must give the attached section an
    integral intersection with O.  With an undetermined sign both sign
    choices must agree on torsion, otherwise the decomposition is reported
    as ambiguous.
    """
    d = table.divisor(divisor) if isinstance(divisor, str) else divisor
    gen = table.section(generator) if isinstance(generator, str) else generator
    xs = _solves(table, d)
    free = _free_coefficient(table, d, gen, xs)
    classes = gamma_bar(table, d)
    gen_classes = gamma_bar_section(table, gen)
    residual = classes - free.n * gen_classes
    tors = _match_torsion(table, residual)
    if not free.sign_determined and _match_torsion(table, classes + free.n * gen_classes) != tors:
        raise InconsistentDataError(
            f"sign of n = {free.n} is undetermined and the torsion resolution"
            " depends on it; register D.s_o to fix the sign"
        )
    vectors = tuple(
        tuple(-x for x in xs[fid]) if fid in xs else (Fraction(0),) * (table.fiber_of(fid).m - 1)
        for fid, _ in table.cfg.fibers
    )
    return Derivation(
        free, vectors, classes, residual, tors, _bookkeeping(table, d, free, classes, tors),
        MWPoint(free.n, tors.coords, tors.name),
    )


def abel_jacobi_image(table: IntersectionTable, divisor: DivisorProfile | str,
                      generator: SectionProfile | str) -> MWPoint:
    """P_D = n * P_o + torsion; the point of `derive`."""
    return derive(table, divisor, generator).point


def _bookkeeping(table: IntersectionTable, d: DivisorProfile, free: FreeCoefficient,
                 classes: DualClassTuple, tors: TorsionElement) -> int:
    # <P_D, P_D> = n^2 <P_o, P_o> must equal 2 chi + 2 s(D).O + contr, where
    # contr is read off the dual classes of P_D (one simple component each);
    # s(D).O must come out a nonnegative integer, or -chi when P_D = O.
    chi = table.cfg.chi
    entries = []
    for (fid, _), part in zip(table.cfg.fibers, classes.parts):
        data = table.fiber_of(fid)
        k = data.class_to_simple[part]
        if k:
            entries.append((data.a_inv, k - 1, k - 1))
    num, den = _inverse_sum(entries)
    s_dot_o = (free.n_squared * free.height - 2 * chi - Fraction(num, den)) / 2
    ok = s_dot_o.denominator == 1 and (
        s_dot_o >= 0 or (s_dot_o == -chi and free.n == 0 and tors.is_zero())
    )
    if not ok:
        raise InconsistentDataError(
            f"height identity gives s(D).O = {s_dot_o}, which no section attains;"
            " intersection data is inconsistent"
        )
    # relation bookkeeping: the fiber coefficient (d-1) chi + O.D - s(D).O
    # is then automatically an integer; keep the assertion for safety
    n_star = (d.d - 1) * chi + d.d_dot_o - s_dot_o
    if n_star.denominator != 1:
        raise InconsistentDataError("fiber coefficient in the decomposition is not integral")
    return int(s_dot_o)


@dataclass(frozen=True)
class ShiodaTateReport:
    expected: int
    declared: int

    @property
    def ok(self) -> bool:
        return self.expected == self.declared


def shioda_tate_check(cfg: SurfaceConfig, ns_rank: int) -> ShiodaTateReport:
    """Neron-Severi rank accounting: 2 + sum(m_v - 1) + mw_free_rank."""
    from .kodaira import fiber_data

    expected = 2 + sum(fiber_data(kind).m - 1 for _, kind in cfg.fibers) + cfg.mw_free_rank
    return ShiodaTateReport(expected, ns_rank)
