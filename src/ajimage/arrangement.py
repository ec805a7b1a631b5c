"""Exact constructor and classifier for nodal-cubic + four-line arrangements.

Everything happens on one fixed rational model: the nodal cubic

    C : z*y^2 = x^3 + x^2*z     (node at (0 : 0 : 1))

parametrized by the slope t of lines through the node,

    P(t) = (t^2 - 1 : t*(t^2 - 1) : 1),   P(oo) = (0 : 1 : 0),

with t = +-1 hitting the node.  On the smooth locus the coordinate
u(t) = (t - 1)/(t + 1) identifies the group of the cubic with the
multiplicative group: three smooth points are collinear exactly when
their u-values multiply to 1, with the inflection P(oo) (u = 1) as
identity.  The test suite re-validates this orientation against the
determinant oracle on hundreds of random triples rather than trusting
the formula.

An arrangement consists of three tangent lines L_1, L_2, L_3 touching C
at q_1, q_2, q_3 plus the line L_0 through the three residual contact
points p_i (tangency at u makes the residual point u^{-2}, so the p_i
are automatically collinear: their u-product is the inverse square of
the q's u-product, which is +-1 by construction).  The sign chosen for
the q's u-product is the whole classification: +1 makes q_1, q_2, q_3
collinear (Type I), -1 makes them non-collinear (Type II).  Public entry
points read their numbers through `exact.exact_number`.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Union

from .dihedral import ArrangementType
from .errors import DegenerateArrangementError, InconsistentDataError, SchemaError
from .exact import exact_number
from .fourlines import bundled_derivation
from .mwgroup import MWPoint

Rat = Union[int, Fraction, str]

#: parameter values of lines through the node that are tangent there
NODE_PARAMS = (Fraction(1), Fraction(-1))


def _rat(x, where: str) -> Fraction:
    """A caller's number as a Fraction (a Fraction passes as it is)."""
    return x if type(x) is Fraction else Fraction(exact_number(x, where))


def _normalize(coords: tuple[Fraction, Fraction, Fraction]) -> tuple[Fraction, ...]:
    for c in coords:
        if c:
            return tuple(x / c for x in coords)
    raise SchemaError("projective coordinates must not all vanish")


@dataclass(frozen=True)
class ProjPoint:
    """A point of the projective plane, stored in normalized form."""

    coords: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        coords = tuple(_rat(c, "ProjPoint") for c in self.coords)
        object.__setattr__(self, "coords", _normalize(coords))

    @staticmethod
    def of(x: Rat, y: Rat, z: Rat) -> "ProjPoint":
        return ProjPoint((x, y, z))

    def __str__(self):
        return "(" + " : ".join(map(str, self.coords)) + ")"


@dataclass(frozen=True)
class Line:
    """a*x + b*y + c*z = 0, coefficients stored in normalized form."""

    coeffs: tuple[Fraction, Fraction, Fraction]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", _normalize(tuple(_rat(c, "Line") for c in self.coeffs)))

    def contains(self, p: ProjPoint) -> bool:
        return sum(a * x for a, x in zip(self.coeffs, p.coords)) == 0

    @staticmethod
    def through(p: ProjPoint, q: ProjPoint) -> "Line":
        cr = _cross(p.coords, q.coords)
        if not any(cr):
            raise DegenerateArrangementError(f"no unique line through {p} twice")
        return Line(cr)

    def meet(self, other: "Line") -> ProjPoint:
        cr = _cross(self.coeffs, other.coeffs)
        if not any(cr):
            raise DegenerateArrangementError("the lines coincide; no unique meeting point")
        return ProjPoint(cr)

    def __str__(self):
        return "[" + " : ".join(map(str, self.coeffs)) + "]"


def _cross(a, b):
    return (
        a[1] * b[2] - a[2] * b[1],
        a[2] * b[0] - a[0] * b[2],
        a[0] * b[1] - a[1] * b[0],
    )


def cubic_form(p: ProjPoint) -> Fraction:
    x, y, z = p.coords
    return x**3 + x**2 * z - y**2 * z


def on_cubic(p: ProjPoint) -> bool:
    return cubic_form(p) == 0


def param_point(t: "Rat | None") -> ProjPoint:
    """P(t) on the cubic; t = None is the inflection at infinity."""
    if t is None:
        return ProjPoint.of(0, 1, 0)
    t = _rat(t, "param_point")
    if t in NODE_PARAMS:
        raise DegenerateArrangementError(
            f"parameter t = {t} hits the node of the cubic; no smooth point there"
        )
    return ProjPoint.of(t * t - 1, t * (t * t - 1), 1)


def u_of(t: "Rat | None") -> Fraction:
    """Group coordinate of P(t): u = (t - 1)/(t + 1), u(oo) = 1."""
    if t is None:
        return Fraction(1)
    t = _rat(t, "u_of")
    if t in NODE_PARAMS:
        raise DegenerateArrangementError(f"parameter t = {t} hits the node of the cubic")
    return (t - 1) / (t + 1)


def param_of_u(u: Rat) -> "Fraction | None":
    """Inverse of u_of; u = 1 is the point at infinity (None)."""
    u = _rat(u, "param_of_u")
    if u == 0:
        raise DegenerateArrangementError("u = 0 is the node, not a smooth point")
    if u == 1:
        return None
    return (1 + u) / (1 - u)


def tangent_line_at(t: Rat) -> Line:
    """The tangent line of the cubic at P(t) (gradient of the cubic form,
    with the common factor t^2 - 1 removed)."""
    t = _rat(t, "tangent_line_at")
    if t in NODE_PARAMS:
        raise DegenerateArrangementError(f"parameter t = {t} hits the node; no tangent line")
    return Line((-(3 * t * t - 1), 2 * t, (t * t - 1) ** 2))


def _triple(a, b, c) -> Fraction:
    """Determinant of the 3x3 matrix with rows a, b, c: a . (b x c)."""
    return sum(x * y for x, y in zip(a, _cross(b, c)))


def collinear(a: ProjPoint, b: ProjPoint, c: ProjPoint) -> bool:
    return _triple(a.coords, b.coords, c.coords) == 0


@dataclass(frozen=True)
class Arrangement:
    """A validated nodal-cubic + four-line configuration.

    q_params hold the tangency parameters t(q_i); p_params the residual
    parameters t(p_i), with None for the point at infinity.  lines is
    (L_0, L_1, L_2, L_3) and corners the pairwise meets p_{ij} of the
    tangent lines.
    """

    sign: int
    q_params: tuple[Fraction, Fraction, Fraction]
    p_params: tuple["Fraction | None", ...]
    q_points: tuple[ProjPoint, ProjPoint, ProjPoint]
    p_points: tuple[ProjPoint, ProjPoint, ProjPoint]
    lines: tuple[Line, Line, Line, Line]
    corners: dict[tuple[int, int], ProjPoint]
    type_tag: ArrangementType

    def as_dict(self) -> dict:
        """JSON-ready rendering; all rationals as exact 'p/q' strings."""
        rat = lambda x: "oo" if x is None else str(x)
        return {
            "type": self.type_tag.value,
            "sign": self.sign,
            "q_params": [rat(t) for t in self.q_params],
            "p_params": [rat(t) for t in self.p_params],
            "q_points": [[rat(c) for c in p.coords] for p in self.q_points],
            "p_points": [[rat(c) for c in p.coords] for p in self.p_points],
            "lines": {
                f"L{i}": [rat(c) for c in line.coeffs] for i, line in enumerate(self.lines)
            },
            "corners": {
                f"p{i}{j}": [rat(c) for c in pt.coords] for (i, j), pt in sorted(self.corners.items())
            },
        }


def generate_arrangement(s1: Rat, s2: Rat, sign: int = 1) -> Arrangement:
    """Build the arrangement tangent at u-coordinates u1, u2, sign/(u1*u2).

    The first two tangency points are P(s1), P(s2); the third is placed so
    that the q's u-product is exactly `sign`, making them collinear for
    sign = +1 and non-collinear for sign = -1.  Degenerate parameter
    choices (node parameters, coinciding tangency or residual points,
    concurrent tangents) are rejected with the violated condition spelled
    out.  No q_i can then equal a p_j: since u_1 u_2 u_3 = sign, u_i = u_j^-2
    with i != j makes the third coordinate sign * u_j, so two q's (sign +1)
    or two p's (sign -1) coincide, and u_i = u_i^-2 gives u_i^3 = 1, so
    u_i = 1 over Q, which u_of never returns and the u_3 check refuses.
    """
    s1, s2, sign = _rat(s1, "s1"), _rat(s2, "s2"), exact_number(sign, "sign")
    if sign not in (1, -1):
        raise SchemaError(f"sign must be +1 or -1, got {sign!r}")
    u1, u2 = u_of(s1), u_of(s2)
    u3 = sign / (u1 * u2)
    if u3 == 1:
        raise DegenerateArrangementError(
            "q_3 degenerates to the inflection point at infinity, where the tangent"
            " has no residual contact point"
        )
    us = (u1, u2, u3)
    if len(set(us)) != 3:
        raise DegenerateArrangementError(f"tangency points coincide (u-coordinates {us})")
    ups = tuple(1 / (u * u) for u in us)
    if len(set(ups)) != 3:
        raise DegenerateArrangementError(
            "residual contact points p_i coincide; no transversal line through them"
        )

    q_params = tuple(param_of_u(u) for u in us)
    p_params = tuple(param_of_u(u) for u in ups)
    q_points = tuple(param_point(t) for t in q_params)
    p_points = tuple(param_point(t) for t in p_params)
    tangents = tuple(tangent_line_at(t) for t in q_params)
    if _triple(*(line.coeffs for line in tangents)) == 0:
        raise DegenerateArrangementError("L_1, L_2 and L_3 are concurrent")
    l0 = Line.through(p_points[0], p_points[1])
    corners = {
        (i, j): tangents[i - 1].meet(tangents[j - 1])
        for i in (1, 2) for j in (2, 3) if i < j
    }
    arr = Arrangement(
        sign=sign,
        q_params=q_params,
        p_params=p_params,
        q_points=q_points,
        p_points=p_points,
        lines=(l0,) + tangents,
        corners=corners,
        type_tag=ArrangementType.TYPE_I if sign == 1 else ArrangementType.TYPE_II,
    )
    _validate(arr)
    return arr


def _validate(arr: Arrangement) -> None:
    """Re-check every claimed incidence on raw coordinates.

    The construction above argues through u-arithmetic; this pass trusts
    nothing but determinants and line evaluations.
    """
    l0, l1, l2, l3 = arr.lines
    tangents = (l1, l2, l3)
    for q in arr.q_points:
        if not on_cubic(q):
            raise InconsistentDataError(f"tangency point {q} left the cubic")
    for p in arr.p_points:
        if not on_cubic(p):
            raise InconsistentDataError(f"residual point {p} left the cubic")
    for i, (line, q, p) in enumerate(zip(tangents, arr.q_points, arr.p_points), start=1):
        if not line.contains(q) or not line.contains(p):
            raise InconsistentDataError(f"L_{i} misses its contact points")
    if not collinear(*arr.p_points):
        raise InconsistentDataError("p_1, p_2, p_3 are not collinear")
    for p in arr.p_points:
        if not l0.contains(p):
            raise InconsistentDataError("L_0 misses a residual point")
    for i, q in enumerate(arr.q_points, start=1):
        if l0.contains(q):
            raise DegenerateArrangementError(f"q_{i} lies on L_0")
        for j, line in enumerate(tangents, start=1):
            if i != j and line.contains(q):
                raise DegenerateArrangementError(f"q_{i} lies on L_{j}")
    got = collinear(*arr.q_points)
    if got != (arr.sign == 1):
        raise InconsistentDataError(
            "collinearity of the tangency points disagrees with the chosen sign"
        )


def classify_type(arr: Arrangement) -> ArrangementType:
    """Type I iff the tangency points are collinear (checked, not trusted)."""
    tag = ArrangementType.TYPE_I if collinear(*arr.q_points) else ArrangementType.TYPE_II
    if tag is not arr.type_tag:
        raise InconsistentDataError(
            f"arrangement tagged {arr.type_tag} but its tangency points classify as {tag}"
        )
    return tag


def image_of(arr: Arrangement) -> MWPoint:
    """Abel-Jacobi image of E+ for this arrangement, via the full pipeline.

    The double cover branched along the four lines turns the cubic's
    preimage into E+ + E-; the arrangement type, classified afresh on the
    raw coordinates, picks E+'s splitting shape, since it decides (E+)^2
    through E+.E- = 3 (collinear q's) or 5.  The image depends on the shape
    alone, so it is the point of `fourlines.bundled_derivation`, which
    computes it once per shape.
    """
    return bundled_derivation(classify_type(arr).variant, "E+").point
