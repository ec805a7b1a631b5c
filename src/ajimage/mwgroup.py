"""Mordell-Weil bookkeeping: dual-class maps, torsion resolution and the
decomposition of a divisor class into n * generator + torsion.

gamma_ns sends a divisor to the per-fiber dual vectors -A_v^{-1} c(v, D);
gamma_bar gives their classes in the component groups R_v^dual / R_v,
read off c(v, D) through each fiber's Smith class rows.  Both kill
the trivial lattice, so the image of a divisor equals the image of its
attached Mordell-Weil point, which is what makes torsion resolvable from
intersection data alone: the class gamma_bar(D) - n * gamma_bar(s_o) must
be hit by exactly one torsion-table entry (or be zero).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistentDataError
from .kodaira import AbelianGroup, dual_class_of, incidence_class
from .nslattice import (
    DivisorProfile,
    IntersectionTable,
    SectionProfile,
    SurfaceConfig,
    FreeCoefficient,
    height_pairing,
    n_of,
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


def gamma_ns(table: IntersectionTable, divisor: DivisorProfile | str) -> dict[str, tuple[Fraction, ...]]:
    """Per-fiber dual vectors -A_v^{-1} c(v, D)."""
    d = table.divisor(divisor) if isinstance(divisor, str) else divisor
    out = {}
    for fid, _ in table.cfg.fibers:
        data = table.fiber_of(fid)
        cvec = d.c.get(fid) or (0,) * (data.m - 1)
        out[fid] = tuple(-x for x in (data.a_inv * cvec))
    return out


def _zero_tuple(table: IntersectionTable) -> DualClassTuple:
    groups = tuple(table.fiber_of(fid).group for fid, _ in table.cfg.fibers)
    return DualClassTuple(groups, tuple(g.zero() for g in groups))


def gamma_bar(table: IntersectionTable, divisor: DivisorProfile | str) -> DualClassTuple:
    """gamma_ns reduced to the product of component groups, read straight
    off the incidence vectors c(v, D)."""
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
    parts = tuple(
        dual_class_of(table.fiber_of(fid), s.components.get(fid, 0))
        for fid, _ in table.cfg.fibers
    )
    return DualClassTuple(groups, parts)


@dataclass(frozen=True)
class IntegralityReport:
    """Which fibers force the attached section onto the identity component."""

    constrained: dict

    def all_constrained(self) -> bool:
        return all(self.constrained.values())


def integrality_constraint(table: IntersectionTable, divisor: DivisorProfile | str) -> IntegralityReport:
    """A_v^{-1} c(v, D) integral means s(D) meets the identity component at v."""
    vectors = gamma_ns(table, divisor)
    return IntegralityReport(
        {fid: all(x.denominator == 1 for x in vec) for fid, vec in vectors.items()}
    )


@dataclass(frozen=True)
class TorsionElement:
    name: str | None  # None for the zero element
    coords: tuple[int, ...]
    classes: DualClassTuple

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coords)

    def __str__(self):
        return self.name or "0"


def _torsion_elements(table: IntersectionTable) -> list[TorsionElement]:
    cfg = table.cfg
    out = [TorsionElement(None, cfg.torsion_group.zero(), _zero_tuple(table))]
    groups = tuple(table.fiber_of(fid).group for fid, _ in cfg.fibers)
    for spec in cfg.torsion_table:
        parts = tuple(
            dual_class_of(table.fiber_of(fid), spec.components.get(fid, 0))
            for fid, _ in cfg.fibers
        )
        out.append(
            TorsionElement(spec.name, cfg.torsion_group.reduce(spec.coords), DualClassTuple(groups, parts))
        )
    return out


def resolve_torsion(table: IntersectionTable, divisor: DivisorProfile | str, n: int,
                    generator: SectionProfile | str) -> TorsionElement:
    """Match gamma_bar(D) - n * gamma_bar(s_o) against the torsion table."""
    target = gamma_bar(table, divisor) - n * gamma_bar_section(table, generator)
    for elem in _torsion_elements(table):
        if elem.classes == target:
            return elem
    raise InconsistentDataError(
        f"no torsion section realizes the dual class {target}; intersection data is"
        " inconsistent with the torsion table"
    )


def abel_jacobi_image(table: IntersectionTable, divisor: DivisorProfile | str,
                      generator: SectionProfile | str) -> MWPoint:
    """Full decomposition P_D = n * P_o + torsion of a divisor class.

    Runs n_of (quadratic + linear routes), resolves torsion, and verifies
    the section bookkeeping: the height identity must give the attached
    section an integral intersection with O.  With an undetermined sign
    both sign choices must agree on torsion, otherwise the decomposition is
    reported as ambiguous.
    """
    d = table.divisor(divisor) if isinstance(divisor, str) else divisor
    gen = table.section(generator) if isinstance(generator, str) else generator
    res = n_of(table, d, gen)
    tors = resolve_torsion(table, d, res.n, gen)
    if not res.sign_determined:
        other = resolve_torsion(table, d, -res.n, gen)
        if other != tors:
            raise InconsistentDataError(
                f"sign of n = {res.n} is undetermined and the torsion resolution"
                " depends on it; register D.s_o to fix the sign"
            )
    _check_bookkeeping(table, d, gen, res, tors)
    return MWPoint(res.n, tors.coords, tors.name)


def _check_bookkeeping(table: IntersectionTable, d: DivisorProfile, gen: SectionProfile,
                       res: FreeCoefficient, tors: TorsionElement) -> None:
    # <P_D, P_D> = n^2 <P_o, P_o> must equal 2 chi + 2 s(D).O + contr, where
    # contr is read off the dual classes of P_D (one simple component each);
    # s(D).O must come out a nonnegative integer, or -chi when P_D = O.
    chi = table.cfg.chi
    height = res.n_squared * height_pairing(table, gen, gen)
    contrib = Fraction(0)
    target = gamma_bar(table, d)
    for (fid, _), part in zip(table.cfg.fibers, target.parts):
        data = table.fiber_of(fid)
        k = data.class_to_simple[part]
        if k:
            contrib += data.a_inv[k - 1, k - 1]
    s_dot_o = (height - 2 * chi - contrib) / 2
    ok = s_dot_o.denominator == 1 and (
        s_dot_o >= 0 or (s_dot_o == -chi and res.n == 0 and tors.is_zero())
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
