"""Mordell-Weil bookkeeping: the decomposition of a divisor class into
n * generator + torsion, derived once and kept as a `Derivation` record.

`derive` takes the names of a divisor and a section registered in the
table, so it only ever reads profiles that `build_table` validated.  Its
closed forms, after Shioda, On the Mordell-Weil lattices (1990), section 8,
go through the projection phi0 away from the trivial lattice
<O, F, Theta_{v, i>=1}>:

    phi0(D) = D - d O - (d chi + O.D) F - sum_v Theta_v A_v^{-1} c(v, D)
    <P, P> = -phi0(s_P).phi0(s_P),
    n^2 = -phi0(D).phi0(D) / <P_o, P_o>,   n = -phi0(D).phi0(s_o) / <P_o, P_o>.

Each phi0 pairing is `nslattice._phi0_pairing`, the one polarized form.
`build_table` holds every registered D^2 to the phi0 line, so the two
routes agree whenever D.s_o is registered and derive does not compare them.

The record keeps gamma_v = -A_v^{-1} c(v, D), solved once per fiber with
nonzero c(v, D), and their classes in the component groups R_v^dual / R_v,
read off c(v, D) through each fiber's Smith class rows.  phi0 and the class
map both kill the trivial lattice, so the image of a divisor equals the
image of its attached Mordell-Weil point, which is what makes torsion
resolvable from intersection data alone: the residual class(D) - n *
class(s_o), formed fiber by fiber, is looked up in the table's torsion dict
(zero included) at each sign of n the data allows, and a sign that misses
is excluded.  The height identity <P, P> then fixes the bookkeeping s(D).O
of the attached section (`nslattice._s_dot_o`, which also forces each
torsion section's s.O).  The record stores each number once; n^2 and
phi0(D).phi0(D) = -n^2 <P_o, P_o> are read off its point and height.
`abel_jacobi_image` returns the record's point; the CLI renders the record.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from operator import mul

from .errors import InconsistentDataError, MissingIntersectionError
from .kodaira import dual_class_of, incidence_class
from .nslattice import DivisorProfile, IntersectionTable, _phi0_pairing, _s_dot_o


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
    """What P_D = n * P_o + t is decided from, built once by derive; n is point.free_coeff.

    sign_route is "pairing" when the registered D.s_o fixed the sign,
    "torsion" when only one sign leaves a residual in the torsion table, and
    "open" when both signs resolve to the same torsion element (n = |n|)."""

    sign_route: str  # "pairing", "torsion" or "open"
    height: Fraction  # <P_o, P_o>
    gamma_vectors: tuple[tuple[Fraction, ...], ...]  # -A_v^{-1} c(v, D), config fiber order
    gamma_classes: tuple[tuple[int, ...], ...]  # their component-group classes
    torsion_residual: tuple[tuple[int, ...], ...]  # gamma_classes - n * classes of s_o
    s_dot_o: int  # s(D).O of the attached section, from the height identity
    point: MWPoint

    @property
    def n_squared(self) -> int:
        return self.point.free_coeff ** 2

    @property
    def phi0_self(self) -> Fraction:  # phi0(D).phi0(D)
        return -self.n_squared * self.height

    @property
    def sign_determined(self) -> bool:
        return self.sign_route != "open"


def derive(table: IntersectionTable, divisor: str, generator: str) -> Derivation:
    """Full decomposition P_D = n * P_o + torsion of a registered divisor
    along a registered generator section.

    Reads n^2 = -phi0(D).phi0(D) / <P_o, P_o>, which must be a perfect
    square, and, when D.s_o is registered, n = -phi0(D).phi0(s_o) / <P_o, P_o>,
    both off `nslattice._phi0_pairing`; then resolves torsion and verifies
    the section bookkeeping.

    The two routes agree without a check here.  derive requires D^2, free
    rank 1 and a generator s_o of positive height, so when D.s_o is
    registered `build_table` has held D^2 to the phi0 line through phi0(s_o):
    phi0(D).phi0(D) = -(phi0(D).phi0(s_o))^2 / <P_o, P_o>.  Dividing by
    -<P_o, P_o> gives n^2 = n_lin^2 for n_lin = -phi0(D).phi0(s_o) / <P_o, P_o>.
    n^2 is an integer square, so n_lin = +-sqrt(n^2) is an integer, and the
    record's n_squared, read off the point, is n^2 on this route too.

    The signs of n the data allows are listed once: n itself when D.s_o is
    registered, else +-|n|.  A sign whose residual names no torsion section
    is excluded, so without D.s_o torsion fixes the sign when exactly one
    sign is left.  When the two signs name different torsion elements the
    decomposition is reported as ambiguous.  That is reachable: on two I4
    fibers, with s_o through Theta_1 of both and a 2-torsion t through
    Theta_2 of both, P_o and -P_o + t agree on every number but D.s_o.

    When both signs name the same torsion element t, the record keeps
    n = |n| with sign_route "open".  Torsion cannot tell nP_o + t from
    -nP_o + t there: their residuals differ by 2n class(P_o), which is zero,
    and every other number the derivation reads is even in n.  Only D.s_o
    separates the two points, so the record does not pick one by any other
    rule; the CLI names the other point and the pairing that would fix it.

    The bookkeeping s(D).O solves <P_D, P_D> = n^2 <P_o, P_o> on the simple
    components that carry P_D's classes.  It is always an integer.  Write
    q(P) = sum_v contr_v(P) = -sum_v (A_v^{-1})_kk.  The height identity says
    2 s(D).O = n^2 <P_o, P_o> - 2 chi + q(nP_o + t), and n^2 <P_o, P_o> is
    -n^2 q(P_o) modulo 2.  Each contr_v is the discriminant quadratic form of
    the even lattice A_v, well defined modulo 2 on the component group, so
    q(nP_o + t) = n^2 q(P_o) + q(t) + 2n sum_v b_v(P_o, t)  (mod 2),
    with b_v(P_o, t) = -(A_v^{-1})_{k_s, k_t}.  Here q(t) = 2 chi + 2 t.O is
    even (t has height zero), and `build_table` has checked that
    sum_v b_v(P_o, t) is an integer for every torsion entry t.  So
    2 s(D).O is even.  The sign is not forced: s(D).O < 0 on a point other
    than O means the generator has an impossible multiple, and the data is
    refused.
    """
    d = table.divisors[divisor]
    gen = table.sections[generator]
    chi, fibers = table.cfg.chi, table.fibers
    if table.cfg.mw_free_rank != 1:
        raise InconsistentDataError(
            f"free coefficient needs Mordell-Weil free rank 1, not {table.cfg.mw_free_rank}"
        )
    h = table.heights[generator]
    if h <= 0:
        raise InconsistentDataError(
            f"generator {generator!r} has height {h}; a free generator needs positive height"
        )
    if d.d_squared is None:
        raise MissingIntersectionError(f"divisor {divisor!r}: D^2 required for phi0_self")
    n_sq = -_phi0_pairing(chi, fibers, d, d, d.d_squared) / h
    if n_sq < 0 or n_sq.denominator != 1 or isqrt(n_sq.numerator) ** 2 != n_sq.numerator:
        raise InconsistentDataError(
            f"n^2 = {n_sq} not a perfect square => inconsistent intersection data"
        )
    n_sq = n_sq.numerator
    n_lin = None
    if generator in d.d_dot_section:
        n_lin = int(-_phi0_pairing(chi, fibers, d, gen, d.d_dot_section[generator]) / h)
    gammas = _solves(table, d)
    # one pass over the fibers, in config order
    vectors, classes, parts, components = [], [], [], {}
    for fid, data in fibers.items():
        cls = incidence_class(data, d.c[fid])
        vectors.append(gammas[fid] if fid in gammas else (Fraction(0),) * (data.m - 1))
        classes.append(cls)
        parts.append((cls, dual_class_of(data, gen.components.get(fid, 0)),
                      data.group.invariant_factors))
        components[fid] = data.class_to_simple[cls]

    def residual_of(n: int):
        # classes - n * classes of s_o, fiber by fiber
        return tuple(tuple((x - n * y) % f for x, y, f in zip(*part)) for part in parts)

    n_abs = isqrt(n_sq)
    signs = (n_lin,) if n_lin is not None else (n_abs, -n_abs) if n_abs else (0,)
    residuals = [residual_of(n) for n in signs]
    kept = [(n, r) for n, r in zip(signs, residuals) if r in table.torsion]
    if not kept:
        raise InconsistentDataError(
            f"no torsion section realizes the dual class {classes_str(residuals[0])};"
            " intersection data is inconsistent with the torsion table"
        )
    if len({table.torsion[r] for _, r in kept}) > 1:
        raise InconsistentDataError(
            f"sign of n = {n_abs} is undetermined and the torsion resolution"
            " depends on it; register D.s_o to fix the sign"
        )
    n, residual = kept[0]
    route = "pairing" if n_lin is not None else "torsion" if len(kept) < len(signs) else "open"
    name, coords = table.torsion[residual]
    point = MWPoint(n, coords, name)
    s_dot_o = _s_dot_o(chi, fibers, components, n_sq * h)
    if s_dot_o < 0 and (n or not point.torsion_is_zero()):
        raise InconsistentDataError(
            f"height identity gives s(D).O = {s_dot_o}, which no section attains;"
            " intersection data is inconsistent"
        )
    return Derivation(route, h, tuple(vectors), tuple(classes), residual, s_dot_o, point)


def abel_jacobi_image(table: IntersectionTable, divisor: str, generator: str) -> MWPoint:
    """P_D = n * P_o + torsion; the point of `derive`."""
    return derive(table, divisor, generator).point


def _solves(table: IntersectionTable, d: DivisorProfile) -> dict[str, tuple[Fraction, ...]]:
    """gamma_v = -A_v^{-1} c(v, D) for every fiber with c(v, D) != 0, one
    Fraction per integer dot product, which the record's gamma vectors and
    `fourlines.ns_relation` read."""
    out = {}
    for fid, c in d.c.items():
        if any(c):
            a_inv = table.fibers[fid].a_inv
            out[fid] = tuple(Fraction(-sum(map(mul, row, c)), a_inv.den) for row in a_inv.num)
    return out
