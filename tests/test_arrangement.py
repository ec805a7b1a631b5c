import json
import random
from dataclasses import replace
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
import sympy
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ajimage import fourlines
from ajimage.arrangement import (
    Arrangement,
    Line,
    ProjPoint,
    _validate,
    classify_type,
    collinear,
    cubic_form,
    generate_arrangement,
    image_of,
    on_cubic,
    param_of_u,
    param_point,
    tangent_line_at,
    u_of,
)
from ajimage.dihedral import ArrangementType
from ajimage.errors import DegenerateArrangementError, InconsistentDataError, SchemaError
from ajimage.mwgroup import MWPoint

from oracles import (
    collinear_reference,
    drawn_arrangement,
    on_cubic_reference,
    on_line_reference,
)


def rand_param(rng):
    while True:
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 12))
        if t not in (1, -1):
            return t


def test_param_point_goldens():
    assert param_point(0) == ProjPoint.of(-1, 0, 1)
    assert param_point(2) == ProjPoint.of(3, 6, 1)
    assert param_point(None) == ProjPoint.of(0, 1, 0)
    assert cubic_form(param_point(None)) == 0
    for t in (0, 2, Fraction(-7, 5), None):
        assert on_cubic(param_point(t))
    for t in (1, -1):
        with pytest.raises(DegenerateArrangementError, match="node"):
            param_point(t)


def test_param_point_random_on_cubic():
    rng = random.Random(3)
    for _ in range(50):
        assert on_cubic(param_point(rand_param(rng)))


def test_group_coordinate_round_trip():
    rng = random.Random(4)
    for _ in range(50):
        t = rand_param(rng)
        assert param_of_u(u_of(t)) == t
    assert u_of(None) == 1
    assert param_of_u(1) is None
    assert param_of_u(6) == Fraction(-7, 5)
    with pytest.raises(DegenerateArrangementError, match="node"):
        param_of_u(0)


def syndiv(coeffs, root):
    """One synthetic division step; coefficients highest degree first."""
    acc = Fraction(0)
    out = []
    for c in coeffs:
        acc = acc * root + c
        out.append(acc)
    return out[:-1], out[-1]


def restriction(line):
    """The tangent line evaluated along the parametrization, as a polynomial
    in t (highest degree first): a(t^2-1) + b t(t^2-1) + c."""
    a, b, c = line.coeffs
    return [b, a, -b, c - a]


@pytest.mark.parametrize("t", [2, 3, 0, -3, Fraction(5, 2), Fraction(-1, 3), 7])
def test_tangency_double_root(t):
    t = Fraction(t)
    line = tangent_line_at(t)
    assert line.contains(param_point(t))
    poly = restriction(line)
    q1, r1 = syndiv(poly, t)
    q2, r2 = syndiv(q1, t)
    assert r1 == 0 and r2 == 0  # contact of order two at q
    t_res = param_of_u(1 / u_of(t) ** 2)
    lead, const = q2
    if lead:
        assert -const / lead == t_res  # simple residual root at p
        assert line.contains(param_point(t_res))
    else:
        # degree drop: the residual intersection is the point at infinity
        assert t_res is None
        assert line.contains(param_point(None))


def test_tangent_third_point_goldens():
    assert tangent_line_at(2).coeffs == ProjPoint.of(-11, 4, 9).coords
    assert param_of_u(1 / u_of(2) ** 2) == Fraction(-5, 4)
    assert param_of_u(1 / u_of(3) ** 2) == Fraction(-5, 3)
    with pytest.raises(DegenerateArrangementError, match="node"):
        tangent_line_at(-1)


def test_collinear_goldens():
    on_x = [ProjPoint.of(0, 1, 0), ProjPoint.of(0, 0, 1), ProjPoint.of(0, 1, 1)]
    assert collinear(*on_x)
    rng = random.Random(9)
    for _ in range(20):
        t = rand_param(rng)
        if t == 0:
            continue
        assert collinear(param_point(t), param_point(-t), param_point(None))
    assert not collinear(param_point(2), param_point(3), param_point(5))


def test_group_coordinate_agrees_with_determinant():
    """u(t1) u(t2) u(t3) = 1 <=> the three points are collinear, on 500
    random distinct triples (harder direction seeded by constructed
    collinear triples, since random ones almost never satisfy it)."""
    rng = random.Random(41)
    checked = 0
    while checked < 500:
        ts = {rand_param(rng) for _ in range(3)}
        if rng.random() < 0.4:
            ts.add(None)
        ts = list(ts)[:3]
        if len(ts) < 3:
            continue
        if rng.random() < 0.5:
            # force a collinear triple: replace the third parameter
            u12 = u_of(ts[0]) * u_of(ts[1])
            if u12 == 0:
                continue
            third = 1 / u12
            if third == 0:
                continue
            ts[2] = param_of_u(third)
            if ts[2] in (1, -1) or len(set(ts)) < 3:
                continue
        us = [u_of(t) for t in ts]
        pts = [param_point(t) for t in ts]
        product_is_one = us[0] * us[1] * us[2] == 1
        assert product_is_one == collinear(*pts), ts
        checked += 1


def test_generate_type1_golden():
    arr = generate_arrangement(2, 3, +1)
    assert arr.type_tag is ArrangementType.TYPE_I
    assert classify_type(arr) is ArrangementType.TYPE_I
    assert arr.q_params == (2, 3, Fraction(-7, 5))
    assert collinear(*arr.q_points)
    assert collinear(*arr.p_points)
    assert u_of(arr.q_params[0]) * u_of(arr.q_params[1]) * u_of(arr.q_params[2]) == 1
    l0 = arr.lines[0]
    assert all(l0.contains(p) for p in arr.p_points)


def test_generate_type2_golden():
    arr = generate_arrangement(2, 3, -1)
    assert arr.type_tag is ArrangementType.TYPE_II
    assert classify_type(arr) is ArrangementType.TYPE_II
    assert arr.q_params == (2, 3, Fraction(-5, 7))
    assert not collinear(*arr.q_points)


def test_generate_rejections():
    with pytest.raises(DegenerateArrangementError, match="node"):
        generate_arrangement(1, 3)
    with pytest.raises(DegenerateArrangementError, match="node"):
        generate_arrangement(3, -1)
    with pytest.raises(SchemaError, match="sign"):
        generate_arrangement(2, 3, 0)
    # u1*u2 = 1 puts q3 at the inflection point
    with pytest.raises(DegenerateArrangementError, match="inflection"):
        generate_arrangement(2, -2, +1)
    with pytest.raises(DegenerateArrangementError, match="inflection"):
        generate_arrangement(2, Fraction(-1, 2), -1)
    # u2 = u1^{-2} makes u3 collide with u1
    with pytest.raises(DegenerateArrangementError, match="coincide"):
        generate_arrangement(3, param_of_u(u_of(3) ** -2), +1)
    # opposite u's give equal residual points
    with pytest.raises(DegenerateArrangementError, match="residual"):
        generate_arrangement(-3, Fraction(-1, 3), +1)


@given(st.fractions(-12, 12, max_denominator=6), st.fractions(-12, 12, max_denominator=6),
       st.sampled_from([1, -1]))
def test_no_tangency_point_is_a_residual_point(s1, s2, sign):
    # generate_arrangement's docstring proves that once the three u-checks
    # pass, no q_i equals a p_j (u_i = u_j^-2); so it runs no such check
    assume(s1 not in (1, -1) and s2 not in (1, -1))
    u1, u2 = u_of(s1), u_of(s2)
    us = (u1, u2, sign / (u1 * u2))
    assume(us[2] != 1 and len(set(us)) == 3 and len({u**-2 for u in us}) == 3)
    assert not set(us) & {u**-2 for u in us}


def test_concurrency_determinant_factors():
    # generate_arrangement's concurrency proof, in sympy: the cubic's point at
    # u is (1 - u)^3 P(t) = (4u(1 - u) : 4u(1 + u) : (1 - u)^3), and its
    # tangent is the gradient there over -4u, a polynomial row of degree 4
    u, u1, u2, x, y, z = sympy.symbols("u u1 u2 x y z")
    form = x**3 + x**2 * z - y**2 * z
    point = {x: 4 * u * (1 - u), y: 4 * u * (1 + u), z: (1 - u) ** 3}
    assert sympy.expand(form.subs(point)) == 0
    grad = [sympy.expand(sympy.diff(form, v).subs(point)) for v in (x, y, z)]
    row = [sympy.quo(g, -4 * u, u) for g in grad]
    assert all(sympy.expand(g + 4 * u * r) == 0 for g, r in zip(grad, row))

    def numerator(sign):  # the determinant at u3 = sign/(u1 u2), times (u1 u2)^4
        rows = [[c.subs(u, w) for c in row] for w in (u1, u2, sign / (u1 * u2))]
        return sympy.expand(sympy.cancel(sympy.Matrix(rows).det() * (u1 * u2) ** 4))

    # sign -1: every factor makes two q's coincide or a q equal a p
    assert numerator(-1) == sympy.expand(
        128 * (u1 - u2) * (u1 + u2) * (u1 * u2**2 - 1) * (u1 * u2**2 + 1)
        * (u1**2 * u2 - 1) * (u1**2 * u2 + 1))
    # sign +1: one further factor, in sigma = u1 + u2 and pi = u1 u2
    # pi sigma^2 + (pi^3 + 1) sigma - 8 pi^2, of discriminant pi^6 + 34 pi^3 + 1
    sigma, pi = u1 + u2, u1 * u2
    rest = pi * sigma**2 + (pi**3 + 1) * sigma - 8 * pi**2
    assert numerator(1) == sympy.expand(
        128 * (u1 - u2) * (u1 * u2**2 - 1) * (u1**2 * u2 - 1) * rest)
    s, p = sympy.symbols("s p")
    quadratic = p * s**2 + (p**3 + 1) * s - 8 * p**2
    assert sympy.expand(sympy.discriminant(quadratic, s) - (p**6 + 34 * p**3 + 1)) == 0


def test_projective_point_needs_a_nonzero_coordinate():
    with pytest.raises(SchemaError) as exc:
        ProjPoint.of(0, 0, 0)
    assert str(exc.value) == "projective coordinates must not all vanish"


def test_generated_pipeline_seeded():
    rng = random.Random(123)
    for done in range(100):
        sign = 1 if done % 2 == 0 else -1
        arr = drawn_arrangement(lambda: (rand_param(rng), rand_param(rng)), sign)
        tag = classify_type(arr)
        if sign == 1:
            assert tag is ArrangementType.TYPE_I
            assert collinear(*arr.q_points)
            assert image_of(arr) == MWPoint(0, (0, 0), None)
        else:
            assert tag is ArrangementType.TYPE_II
            assert not collinear(*arr.q_points)
            assert image_of(arr) == MWPoint(2, (0, 0), None)


@settings(max_examples=60, deadline=None)
@given(st.fractions(-30, 30, max_denominator=12), st.fractions(-30, 30, max_denominator=12),
       st.sampled_from([1, -1]))
def test_integer_triples_agree_with_fractions(s1, s2, sign):
    # the predicates read each point's and line's integer triple; the
    # oracles evaluate the stored Fractions instead
    try:
        arr = generate_arrangement(s1, s2, sign)
    except DegenerateArrangementError:
        assume(False)
    points = arr.q_points + arr.p_points + tuple(arr.corners.values())
    for ints, fracs in [(p._ints, p.coords) for p in points] + [
        (line._ints, line.coeffs) for line in arr.lines
    ]:
        # primitive, and proportional to the Fractions (fracs[0] is 1 or 0)
        assert all(type(x) is int for x in ints) and gcd(*ints) == 1
        k = next(i for i, f in enumerate(fracs) if f)
        assert all(x * fracs[k] == f * ints[k] for x, f in zip(ints, fracs))
    for line in arr.lines:
        for p in points:
            assert line.contains(p) == on_line_reference(line, p)
    for p in points:
        assert on_cubic(p) == on_cubic_reference(p)
    for triple in combinations(points, 3):
        assert collinear(*triple) == collinear_reference(*triple)
    # as_dict prints p_ij as the meet of L_i and L_j, which are not concurrent
    # with the third tangent
    tangents = arr.lines[1:]
    for (i, j), corner in arr.corners.items():
        assert [line.contains(corner) for line in tangents] == [k in (i, j) for k in (1, 2, 3)]


def test_divisor_profile_for(monkeypatch):
    # image_of reads the bundled derivation of the arrangement's splitting
    # shape, which derives E+ once per shape: (E+)^2 = 3 collinear, 1 not
    derived = []
    derive = fourlines.derive

    def counting(table, divisor, generator):
        derived.append((divisor, table.divisors[divisor].d_squared))
        return derive(table, divisor, generator)

    monkeypatch.setattr(fourlines, "derive", counting)
    fourlines.bundled_derivation.cache_clear()
    try:
        plus, minus = generate_arrangement(2, 3, +1), generate_arrangement(2, 3, -1)
        assert [image_of(arr) for arr in (plus, minus, plus, minus)] == [
            MWPoint(0, (0, 0)), MWPoint(2, (0, 0))] * 2
    finally:
        fourlines.bundled_derivation.cache_clear()
    assert derived == [("E+", 3), ("E+", 1)]


def test_classify_detects_tampered_tag():
    # the tag follows the sign, so a flipped sign is a tampered tag
    arr = generate_arrangement(2, 3, +1)
    with pytest.raises(InconsistentDataError, match="classif"):
        classify_type(replace(arr, sign=-1))


def test_validate_detects_off_cubic_point():
    arr = generate_arrangement(2, 3, +1)
    bad = replace(arr, q_points=(ProjPoint.of(1, 1, 1),) + arr.q_points[1:])
    with pytest.raises((InconsistentDataError, DegenerateArrangementError)):
        _validate(bad)


def _other_residuals(arr):
    # three points of the cubic off a line, each joined to its q_i by a
    # (non-tangent) L_i, so every incidence before collinearity still holds
    points = tuple(param_point(t) for t in (0, 5, 7))
    lines = tuple(Line.through(q, p) for q, p in zip(arr.q_points, points))
    return replace(arr, p_points=points, lines=arr.lines[:1] + lines)


def _q1_at_p2(arr):
    # q_1 := p_2 and L_1 := L_0: L_1 still holds q_1 and p_1, so q_1 on L_0
    # is the first incidence that fails
    return replace(arr, q_points=arr.p_points[1:2] + arr.q_points[1:],
                   lines=(arr.lines[0],) * 2 + arr.lines[2:])


def _q2_at_q1(arr):
    # q_2 := q_1 and L_2 := the line through q_1 and p_2, which holds q_1
    q1, p2 = arr.q_points[0], arr.p_points[1]
    return replace(arr, q_points=(q1, q1, arr.q_points[2]),
                   lines=arr.lines[:2] + (Line.through(q1, p2), arr.lines[3]))


TAMPERED = [
    pytest.param(lambda arr: replace(arr, p_points=(ProjPoint.of(1, 1, 1),) + arr.p_points[1:]),
                 InconsistentDataError, "residual point (1 : 1 : 1) left the cubic",
                 id="residual-off-cubic"),
    pytest.param(lambda arr: replace(arr, lines=(arr.lines[0], arr.lines[2], arr.lines[1],
                                                 arr.lines[3])),
                 InconsistentDataError, "L_1 misses its contact points", id="swapped-tangents"),
    pytest.param(_other_residuals, InconsistentDataError, "p_1, p_2, p_3 are not collinear",
                 id="residuals-not-collinear"),
    pytest.param(lambda arr: replace(arr, lines=(Line((0, 0, 1)),) + arr.lines[1:]),
                 InconsistentDataError, "L_0 misses a residual point", id="wrong-transversal"),
    pytest.param(_q1_at_p2, DegenerateArrangementError, "q_1 lies on L_0", id="q-on-transversal"),
    pytest.param(_q2_at_q1, DegenerateArrangementError, "q_1 lies on L_2", id="q-on-other-tangent"),
    pytest.param(lambda arr: replace(arr, sign=-1), InconsistentDataError,
                 "arrangement tagged Type II but its tangency points classify as Type I",
                 id="wrong-sign"),
]


@pytest.mark.parametrize("tamper, error, message", TAMPERED)
def test_validate_detects_tampering(tamper, error, message):
    # _validate trusts nothing the construction claims: each edit of a valid
    # arrangement fails the one incidence it breaks
    with pytest.raises(error) as exc:
        _validate(tamper(generate_arrangement(2, 3, +1)))
    assert str(exc.value) == message


def test_as_dict_json():
    arr = generate_arrangement(0, 3, -1)  # t=0 puts p_1 at infinity
    doc = arr.as_dict()
    text = json.dumps(doc, sort_keys=True)
    assert json.loads(text) == doc
    assert doc["type"] == "II"
    assert doc["p_params"][0] == "oo"
    assert all(Fraction(v) is not None for v in doc["q_params"])
    assert doc["lines"]["L0"] and doc["corners"]["p12"]


def test_line_basics():
    l = Line.through(ProjPoint.of(0, 0, 1), ProjPoint.of(0, 1, 0))
    assert l.contains(ProjPoint.of(0, 5, 7))
    assert not l.contains(ProjPoint.of(1, 0, 0))
    m = Line.through(ProjPoint.of(1, 0, 0), ProjPoint.of(0, 1, 0))
    assert l.meet(m) == ProjPoint.of(0, 1, 0) or l.meet(m) == ProjPoint.of(0, 0, 1)
    with pytest.raises(DegenerateArrangementError):
        l.meet(l)
    with pytest.raises(DegenerateArrangementError):
        Line.through(ProjPoint.of(2, 0, 0), ProjPoint.of(1, 0, 0))
