"""Mordell-Weil bookkeeping: the decomposition of a divisor class into
n * generator + torsion, derived once and kept as a `Derivation` record.

`derive` takes the names of a divisor and a section registered in the
table, so it only ever reads profiles that `build_table` validated.  It
solves x_v = A_v^{-1} c(v, D) once per fiber with nonzero c(v, D) and reads
everything else off those solves: phi0(D).phi0(D) (quadratic route) and
phi0(D).phi0(s_o) (linear route, x_v[k - 1]) give n; the gamma vectors are
-x_v, and their classes in the component groups R_v^dual / R_v are read off
c(v, D) through each fiber's Smith class rows.  Both kill the trivial
lattice, so the image of a divisor equals the image of its attached
Mordell-Weil point, which is what makes torsion resolvable from
intersection data alone: the residual class(D) - n * class(s_o), formed
fiber by fiber, is looked up in the table's torsion dict (zero included).
The height identity then fixes the bookkeeping s(D).O of the attached
section.  `abel_jacobi_image` returns the record's point; the CLI renders
the record.  Closed forms after Shioda, On the Mordell-Weil lattices
(1990), section 8.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import InconsistentDataError
from .kodaira import incidence_class
from .nslattice import (
    DivisorProfile,
    FreeCoefficient,
    IntersectionTable,
    _free_coefficient,
    _gamma_tuple,
    _local_sum,
    _solves,
)


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


def classes_str(classes) -> str:
    """One class per fiber, as (a,b | c | ...)."""
    return "(" + " | ".join(",".join(map(str, p)) if p else "0" for p in classes) + ")"


@dataclass(frozen=True)
class Derivation:
    """Everything P_D = n * P_o + t is decided from, in one record."""

    free: FreeCoefficient  # n, n^2, sign route, <P_o, P_o>, phi0(D).phi0(D)
    gamma_vectors: tuple[tuple[Fraction, ...], ...]  # -A_v^{-1} c(v, D), config fiber order
    gamma_classes: tuple[tuple[int, ...], ...]  # their component-group classes
    torsion_residual: tuple[tuple[int, ...], ...]  # gamma_classes - n * classes of s_o
    s_dot_o: int  # s(D).O of the attached section, from the height identity
    point: MWPoint


def derive(table: IntersectionTable, divisor: str, generator: str) -> Derivation:
    """Full decomposition P_D = n * P_o + torsion of a registered divisor
    along a registered generator section.

    Runs both routes to n, resolves torsion, and verifies the section
    bookkeeping: the height identity must give the attached section an
    integral intersection with O.  With an undetermined sign both sign
    choices must agree on torsion, otherwise the decomposition is reported
    as ambiguous.
    """
    d = table.divisors[divisor]
    gen = table.sections[generator]
    fibers = [table.fibers[fid] for fid, _ in table.cfg.fibers]
    xs = _solves(table, d)
    free = _free_coefficient(table, d, gen, xs)
    classes = tuple(
        incidence_class(data, d.c[fid]) for (fid, _), data in zip(table.cfg.fibers, fibers)
    )
    gen_classes = _gamma_tuple(table.cfg, table.fibers, gen.components)

    def torsion_of(k: int):
        # classes + k * gen_classes, fiber by fiber, and the torsion element it names
        shifted = tuple(
            tuple((x + k * y) % f for x, y, f in zip(a, b, data.group.invariant_factors))
            for data, a, b in zip(fibers, classes, gen_classes)
        )
        hit = table.torsion.get(shifted)
        if hit is None:
            raise InconsistentDataError(
                f"no torsion section realizes the dual class {classes_str(shifted)};"
                " intersection data is inconsistent with the torsion table"
            )
        return shifted, hit

    residual, (name, coords) = torsion_of(-free.n)
    if not free.sign_determined and torsion_of(free.n)[1] != (name, coords):
        raise InconsistentDataError(
            f"sign of n = {free.n} is undetermined and the torsion resolution"
            " depends on it; register D.s_o to fix the sign"
        )
    vectors = tuple(
        tuple(-x for x in xs[fid]) if fid in xs else (Fraction(0),) * (data.m - 1)
        for (fid, _), data in zip(table.cfg.fibers, fibers)
    )
    point = MWPoint(free.n, coords, name)
    return Derivation(
        free, vectors, classes, residual, _bookkeeping(table, d, free, classes, point), point
    )


def abel_jacobi_image(table: IntersectionTable, divisor: str, generator: str) -> MWPoint:
    """P_D = n * P_o + torsion; the point of `derive`."""
    return derive(table, divisor, generator).point


def _bookkeeping(table: IntersectionTable, d: DivisorProfile, free: FreeCoefficient,
                 classes, point: MWPoint) -> int:
    # <P_D, P_D> = n^2 <P_o, P_o> must equal 2 chi + 2 s(D).O + contr, where
    # contr is read off the dual classes of P_D (one simple component each);
    # s(D).O must come out a nonnegative integer, or -chi when P_D = O.
    chi = table.cfg.chi
    components = {
        fid: table.fibers[fid].class_to_simple[part]
        for (fid, _), part in zip(table.cfg.fibers, classes)
    }
    local = Fraction(*_local_sum(table.fibers, components))
    s_dot_o = (free.n_squared * free.height - 2 * chi - local) / 2
    ok = s_dot_o.denominator == 1 and (
        s_dot_o >= 0 or (s_dot_o == -chi and free.n == 0 and point.torsion_is_zero())
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
