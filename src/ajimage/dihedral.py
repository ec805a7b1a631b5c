"""Divisibility in a rank-one Mordell-Weil group and what it decides.

`is_divisible` returns an n-th root of a point n*P_o + t in Z x T, solving
each cyclic factor of the torsion group by gcd arithmetic, or None when the
point has none; the witness is the answer, with no separate yes/no flag.

A dihedral cover of order 2n branched along a four-line-plus-cubic
arrangement exists exactly when P_{E+} - P_{E-} is n-divisible in
Z x (Z/2)^2, with one rule for every type and every n.  Both points are read
off `fourlines.bundled_derivation` of the type's splitting shape
(`ArrangementType.variant`: collinear for Type I, non-collinear for Type
II).  For odd n this is the same as n-divisibility of P_{E+} alone, since 2
is invertible on the odd part.

`CoverSpectrum` decides the rule for every n at once.  Write
P_{E+} - P_{E-} = a*P_o + t with t = (t_i) on the cyclic factors Z/m_i.  It
is n-divisible exactly when n | a and gcd(n, m_i) | t_i for every i.  When
a != 0 the n >= 3 that pass are finitely many divisors of |a|.  When a = 0
only the gcds matter, and gcd(n, m_i) depends on n mod m_i alone, so the
set is a set of residues modulo the exponent of the torsion group.
`cover_spectrum` is that set, built once per type, and `d2n_cover_exists`
reads membership in it, then renders the witness and every reason from the
two points.

`verify_ns_relation` is the supporting check that two formal divisor
classes really are equal in the Neron-Severi group: it compares their
pairings with the table generators (G x) and their self-intersections.
Agreement is conclusive only when the generators span full rank
(`IntersectionTable.generator_rank`, in closed form), so a rank-deficient
table yields a distinct "inconclusive" verdict rather than a silent pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from functools import cache
from math import gcd, isqrt

from .errors import SchemaError
from .fourlines import bundled_derivation, four_line_surface
from .kodaira import AbelianGroup
from .mwgroup import MWPoint
from .nslattice import FormalClass, IntersectionTable, _sym_str


class ArrangementType(Enum):
    TYPE_I = "I"
    TYPE_II = "II"

    @staticmethod
    def parse(text: "str | ArrangementType") -> "ArrangementType":
        if isinstance(text, ArrangementType):
            return text
        key = text.strip().upper()
        if key.startswith("TYPE"):
            key = key[4:].lstrip(" _-")
        try:
            return ArrangementType(key)
        except ValueError:
            raise SchemaError(
                f"unknown arrangement type {text!r}; expected 'I' or 'II'"
            ) from None

    def __str__(self):
        return f"Type {self.value}"

    @property
    def variant(self) -> str:
        """The splitting shape (fourlines.VARIANTS) of the type's bundled surface."""
        return "collinear" if self is ArrangementType.TYPE_I else "noncollinear"


def is_divisible(q: MWPoint, n: int, torsion_group: AbelianGroup) -> MWPoint | None:
    """A witness X in Z x T with n*X = Q, or None when there is none.

    The free part needs n | Q.free_coeff.  Each cyclic torsion factor Z/m
    contributes the congruence n*x = t (mod m), solvable exactly when
    gcd(n, m) divides t; the witness coordinate is then
    (t/g) * (n/g)^{-1} mod (m/g).  Every MWPoint is truthy, so the result
    reads as the yes/no answer too.
    """
    if n < 2:
        raise SchemaError(f"divisibility test needs n >= 2, got {n}")
    if q.free_coeff % n:
        return None
    # an empty torsion tuple means the zero element of any torsion group
    coords = torsion_group.reduce(q.torsion) if q.torsion else torsion_group.zero()
    witness = []
    for t, m in zip(coords, torsion_group.invariant_factors):
        g = gcd(n, m)
        if t % g:
            return None
        mm = m // g
        witness.append((t // g) * pow(n // g, -1, mm) % mm if mm > 1 else 0)
    return MWPoint(q.free_coeff // n, tuple(witness))


@dataclass(frozen=True)
class CoverSpectrum:
    """The n >= 3 for which a point a*P_o + t is n-divisible: n is a member
    exactly when n mod `modulus` lies in `residues`, where modulus 0 leaves
    n as it is (a != 0, and `residues` is the finite set itself)."""
    modulus: int
    residues: frozenset[int]

    @classmethod
    def of(cls, q: MWPoint, torsion_group: AbelianGroup) -> "CoverSpectrum":
        factors = torsion_group.invariant_factors
        coords = torsion_group.reduce(q.torsion) if q.torsion else torsion_group.zero()

        def torsion_divides(n: int) -> bool:  # gcd(n, m) | t on every factor Z/m
            return all(t % gcd(n, m) == 0 for t, m in zip(coords, factors))

        a = abs(q.free_coeff)
        if a:
            divisors = {d for k in range(1, isqrt(a) + 1) if a % k == 0 for d in (k, a // k)}
            return cls(0, frozenset(n for n in divisors if n >= 3 and torsion_divides(n)))
        # the factors form a divisibility chain, so the last is the exponent
        exponent = factors[-1] if factors else 1
        return cls(exponent, frozenset(r for r in range(exponent) if torsion_divides(r)))

    def __contains__(self, n: int) -> bool:
        return (n % self.modulus if self.modulus else n) in self.residues


@dataclass(frozen=True)
class CoverVerdict:
    arrangement_type: ArrangementType
    n: int
    exists: bool
    reasons: tuple[str, ...]
    witness: MWPoint | None = None

    def __bool__(self):
        return self.exists


@cache
def _cover_points(
    atype: ArrangementType,
) -> tuple[MWPoint, str, str, AbelianGroup, CoverSpectrum]:
    """P_{E+} - P_{E-} on the type's bundled surface, its rendering, the
    first reason of every verdict (it does not depend on n), the surface's
    torsion group, and the n for which a cover exists."""
    plus, minus = (bundled_derivation(atype.variant, name).point for name in ("E+", "E-"))
    group = four_line_surface().torsion_group
    torsion = group.add(plus.torsion, group.neg(minus.torsion))
    diff = MWPoint(plus.free_coeff - minus.free_coeff, torsion)
    points = (
        f"on the bundled {atype.variant} surface P_{{E+}} = {plus} and P_{{E-}} = {minus},"
        f" so P_{{E+}} - P_{{E-}} = {diff}"
    )
    return diff, str(diff), points, group, CoverSpectrum.of(diff, group)


def cover_spectrum(arrangement_type: "str | ArrangementType") -> CoverSpectrum:
    """Every n >= 3 for which a dihedral cover of order 2n exists."""
    return _cover_points(ArrangementType.parse(arrangement_type))[4]


def d2n_cover_exists(arrangement_type: "str | ArrangementType", n: int) -> CoverVerdict:
    """Does a dihedral cover of order 2n exist for this arrangement type?

    Exactly when n lies in the type's `cover_spectrum`, that is when
    P_{E+} - P_{E-} is n-divisible in the Mordell-Weil group.
    """
    atype = ArrangementType.parse(arrangement_type)
    if n < 3:
        raise SchemaError(f"dihedral covers need n >= 3, got {n}")
    diff, diff_text, points, group, spectrum = _cover_points(atype)
    exists = n in spectrum
    witness = is_divisible(diff, n, group) if exists else None
    rule = (
        f"a cover of order {2 * n} exists exactly when P_{{E+}} - P_{{E-}} is"
        f" {n}-divisible in the Mordell-Weil group"
    )
    if exists:
        last = f"{diff_text} = {n}*({witness}), so the cover exists"
    else:
        last = f"no point X satisfies {n}*X = {diff_text}, so no cover exists"
    return CoverVerdict(atype, n, exists, (points, rule, last), witness)


class RelationStatus(Enum):
    HOLDS = "holds"
    FAILS = "fails"
    INCONCLUSIVE = "inconclusive"


@dataclass(frozen=True)
class RelationVerdict:
    status: RelationStatus
    detail: str
    mismatches: tuple[str, ...] = ()

    def __bool__(self):
        return self.status is RelationStatus.HOLDS


def verify_ns_relation(table: IntersectionTable, lhs: FormalClass,
                       rhs: FormalClass) -> RelationVerdict:
    """Are two formal classes equal in the Neron-Severi group?

    Any disagreement of pairings (against a generator, or of the two
    self-intersections) disproves the relation outright.  Full agreement
    proves it only if the table generators span the Shioda-Tate rank
    `SurfaceConfig.ns_rank`; otherwise the difference could hide in the
    unseen part of the lattice and the verdict is "inconclusive", never a
    silent pass.
    """
    if lhs == rhs:
        table._vector(lhs)  # a symbol of no table raises KeyError, as below
        return RelationVerdict(RelationStatus.HOLDS, "sides are syntactically identical")
    gens = table.generators()
    mismatches = [
        f"{_sym_str(g)}: {left} != {right}"
        for g, left, right in zip(gens, table.profile(lhs), table.profile(rhs))
        if left != right
    ]
    sq_left = table.pair_class(lhs, lhs)
    sq_right = table.pair_class(rhs, rhs)
    if sq_left != sq_right:
        mismatches.append(f"self-intersection: {sq_left} != {sq_right}")
    if mismatches:
        return RelationVerdict(
            RelationStatus.FAILS, "intersection profiles disagree", tuple(mismatches)
        )
    ns_rank, rank = table.cfg.ns_rank, table.generator_rank
    if rank < ns_rank:
        return RelationVerdict(
            RelationStatus.INCONCLUSIVE,
            f"all pairings agree, but the {len(gens)} generators only span rank"
            f" {rank} < {ns_rank}, which cannot separate classes",
        )
    return RelationVerdict(
        RelationStatus.HOLDS,
        f"all {len(gens)} generator pairings and the self-intersections agree"
        f" over a rank-{rank} spanning set",
    )
