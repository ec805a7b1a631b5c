import random
from dataclasses import replace
from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.matrices.normalforms import invariant_factors

from ajimage.arrangement import (
    Line,
    ProjPoint,
    generate_arrangement,
    param_of_u,
    param_point,
    tangent_line_at,
    u_of,
)
from ajimage.errors import SchemaError
from ajimage.exact import QMatrix, SmithForm, exact_int, exact_number, smith_normal_form
from ajimage.fourlines import eplus_profile, four_line_surface
from ajimage.kodaira import AbelianGroup, FiberKind, fiber_data
from ajimage.nslattice import SYM_O, FormalClass, build_table

from oracles import (
    abelian_order_multiset,
    coset_orders,
    det_cofactor,
    identity,
    inverse_adjugate,
    matmul,
)

# The I0* fiber's intersection matrix and its known exact inverse; this pair
# is the main golden value the rest of the library leans on.
I0STAR = [[-2, 0, 0, 1], [0, -2, 0, 1], [0, 0, -2, 1], [1, 1, 1, -2]]
I0STAR_INV = [
    [Fraction(-1), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1)],
    [Fraction(-1, 2), Fraction(-1), Fraction(-1, 2), Fraction(-1)],
    [Fraction(-1, 2), Fraction(-1, 2), Fraction(-1), Fraction(-1)],
    [Fraction(-1), Fraction(-1), Fraction(-1), Fraction(-2)],
]


def matrices(elements):
    """Matrices of any shape up to 4 x 4 over `elements`."""
    return st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(
            st.lists(elements, min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )


def square_int_matrices(n, lo=-5, hi=5):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=n, max_size=n
    )


def test_inverse_golden_i0star():
    assert smith_normal_form(I0STAR).inverse() == QMatrix(I0STAR_INV)


def test_inverse_identity():
    assert smith_normal_form(identity(4)).inverse() == QMatrix(identity(4))


def test_inverse_singular_raises():
    with pytest.raises(ValueError, match="nonsingular square"):
        smith_normal_form([[1, 2], [2, 4]]).inverse()
    with pytest.raises(ValueError, match="nonsingular square"):
        smith_normal_form([[1, 2, 3], [4, 5, 6]]).inverse()


@settings(max_examples=120)
@given(st.integers(1, 4).flatmap(square_int_matrices))
def test_inverse_matches_adjugate_oracle(entries):
    sf = smith_normal_form(entries)
    if det_cofactor(entries) == 0:
        with pytest.raises(ValueError):
            sf.inverse()
        return
    inv = sf.inverse()
    assert inv == QMatrix(inverse_adjugate(entries))
    assert matmul(entries, inv.rows) == identity(len(entries))
    assert matmul(inv.rows, entries) == identity(len(entries))
    # the numerators come over the last invariant factor, in lowest terms
    assert inv.den == sf.invariant_factors[-1]


def check_smith_form(entries, sf: SmithForm):
    nr, nc = len(entries), len(entries[0])
    s = sf.s
    assert matmul(matmul(sf.u, entries), sf.v) == [list(row) for row in s]
    assert abs(det_cofactor(sf.u)) == 1
    assert abs(det_cofactor(sf.v)) == 1
    # diagonal, nonnegative, divisibility chain with zeros last
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert s[i][j] == 0
    diag = list(sf.invariant_factors)
    assert all(d >= 0 for d in diag)
    for a, b in zip(diag, diag[1:]):
        if a == 0:
            assert b == 0
        else:
            assert b % a == 0


def test_smith_golden_diag():
    sf = smith_normal_form([[1, 0, 0], [0, 2, 0], [0, 0, 4]])
    assert sf.invariant_factors == (1, 2, 4)
    check_smith_form([[1, 0, 0], [0, 2, 0], [0, 0, 4]], sf)


def test_smith_golden_2():
    sf = smith_normal_form([[2]])
    assert sf.invariant_factors == (2,)


def test_smith_i0star_gram():
    gram = [[-x for x in row] for row in I0STAR]
    sf = smith_normal_form(gram)
    assert sf.invariant_factors == (1, 1, 2, 2)
    check_smith_form(gram, sf)
    # brute-force coset oracle agrees: quotient is (Z/2)^2
    assert coset_orders(gram) == abelian_order_multiset((2, 2)) == [1, 2, 2, 2]


def test_smith_rejects_non_integer():
    with pytest.raises(SchemaError, match="smith_normal_form entry must be an integer, not 1/2"):
        smith_normal_form([[Fraction(1, 2)]])


_SURFACE = four_line_surface()
# every public door through which a caller's number reaches the mathematics
DOORS = {
    "exact_number": lambda x: exact_number(x, "x"),
    "exact_int": lambda x: exact_int(x, "x"),
    "build_table chi": lambda x: build_table(replace(_SURFACE, chi=x)),
    "build_table mw_free_rank": lambda x: build_table(replace(_SURFACE, mw_free_rank=x)),
    "section s.O": lambda x: build_table(
        replace(_SURFACE, sections=(replace(_SURFACE.sections[0], s_dot_o=x),))),
    "divisor D^2": lambda x: build_table(
        _SURFACE, [replace(eplus_profile("noncollinear"), d_squared=x)]),
    "AbelianGroup": lambda x: AbelianGroup((x, 4)),
    "FiberKind": lambda x: FiberKind("I", x),
    "FormalClass": lambda x: FormalClass({SYM_O: x}),
    "QMatrix": lambda x: QMatrix([[x]]),
    "smith_normal_form": lambda x: smith_normal_form([[x, 0], [0, 2]]),
    "generate_arrangement s1": lambda x: generate_arrangement(x, 3, -1),
    "generate_arrangement s2": lambda x: generate_arrangement(2, x, -1),
    "generate_arrangement sign": lambda x: generate_arrangement(2, 3, x),
    "ProjPoint": lambda x: ProjPoint.of(x, 1, 1),
    "Line": lambda x: Line((x, 1, 1)),
    "param_point": param_point,
    "u_of": u_of,
    "param_of_u": param_of_u,
    "tangent_line_at": tangent_line_at,
}


def test_exact_number_names_what_it_cannot_read():
    with pytest.raises(TypeError) as exc:
        generate_arrangement(2, 3, None)
    assert str(exc.value) == "sign takes exact numbers, not None"
    with pytest.raises(ValueError) as exc:
        exact_int("x", "chi")
    assert str(exc.value) == "chi takes exact numbers, not 'x'"
    assert exact_number("3/6", "x") == Fraction(1, 2) and exact_int("4/2", "x") == 2


@pytest.mark.parametrize("x", [True, 2.5])
@pytest.mark.parametrize("door", DOORS)
def test_every_door_refuses_bools_and_floats(door, x):
    # exact.exact_number is the one reader: True would be taken as 1 and a
    # float stored as its binary expansion, so each is refused by name
    with pytest.raises(TypeError, match=f"not the {type(x).__name__} {x!r}"):
        DOORS[door](x)


def test_exact_layers_refuse_floats():
    # 0.1 is not 1/10 in binary; a silent Fraction(0.1) would store 2**-55 times
    # 3602879701896397, so every exact entry point names the float and stops
    # (profiles refuse floats in build_table, tests/test_nslattice.py)
    for build in (lambda x: smith_normal_form([[1, x]]), lambda x: QMatrix([[x]])):
        for x in (2.0, 0.1):
            with pytest.raises(TypeError, match=f"float {x!r}"):
                build(x)
    # integral rationals are still exact input
    assert smith_normal_form([[Fraction(2)]]).invariant_factors == (2,)
    assert QMatrix([[Fraction(1, 10)]]) == QMatrix([[1]], 10)


@settings(max_examples=100)
@given(matrices(st.integers(-6, 6)))
def test_smith_unimodular_transforms(entries):
    sf = smith_normal_form(entries)
    check_smith_form(entries, sf)


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=12)


@settings(max_examples=50)
@given(matrices(rationals), st.data())
def test_qmatrix_holds_rationals_as_numerators_over_one_denominator(rows, data):
    rows = tuple(tuple(row) for row in rows)
    m = QMatrix(rows)
    assert m.rows == rows
    assert all(type(x) is Fraction for row in m.rows for x in row)
    assert all(m[i, j] == x and type(m[i, j]) is Fraction
               for i, row in enumerate(rows) for j, x in enumerate(row))
    assert m.den > 0 and gcd(m.den, *(x for row in m.num for x in row)) == 1
    # the same matrix from integer numerators over a (not reduced, maybe
    # negative) denominator
    den = data.draw(st.sampled_from([1, -1])) * m.den * data.draw(st.integers(1, 6))
    num = [[int(x * den) for x in row] for row in rows]
    assert QMatrix(num, den) == m


def test_qmatrix_is_immutable():
    m = QMatrix([[1]])
    with pytest.raises(AttributeError) as exc:
        m.den = 2
    assert str(exc.value) == "QMatrix is immutable" and m.den == 1


def test_qmatrix_rejects_bad_shapes():
    with pytest.raises(ValueError, match="ragged"):
        QMatrix([[1, 2], [3]])
    with pytest.raises(ValueError, match="empty"):
        QMatrix([[]])
    with pytest.raises(ZeroDivisionError):
        QMatrix([[1]], 0)


# ---------------------------------------------------------------------------
# sympy as a differential oracle: it shares no code with the library.  It is
# a declared test dependency, imported like hypothesis, so a broken install
# fails the suite instead of skipping these tests


_rng = random.Random(2018)
SYMPY_KINDS = (
    [f"I{n}" for n in sorted(_rng.sample(range(2, 61), 8))]
    + [f"I{n}*" for n in sorted(_rng.sample(range(41), 8))]
    + ["III", "IV", "IV*", "III*", "II*"]
    + ["I100", "I100*"]
)


@pytest.mark.parametrize("kind", SYMPY_KINDS)
def test_catalog_matches_sympy(kind):
    data = fiber_data(kind)
    a = sympy.Matrix(data.a.num)
    factors = invariant_factors(-a, domain=sympy.ZZ)
    assert data.group.invariant_factors == tuple(int(f) for f in factors if f > 1)
    inv = a.inv()
    den = data.a_inv.den
    assert all(inv[i, j] == sympy.Rational(x, den)
               for i, row in enumerate(data.a_inv.num) for j, x in enumerate(row))


def test_smith_invariant_factors_match_sympy():
    rng = random.Random(7)
    deficient = 0
    for _ in range(300):
        nr, nc = rng.randint(1, 6), rng.randint(1, 6)
        entries = [[rng.choice((0, 0, 0, 1, -1, 2, -3, 6)) for _ in range(nc)]
                   for _ in range(nr)]
        if nr >= 2 and rng.random() < 0.3:  # a dependent row
            q = rng.randint(-3, 3)
            entries[-1] = [x + q * y for x, y in zip(entries[0], entries[1])]
        ours = [f for f in smith_normal_form(entries).invariant_factors if f]
        theirs = invariant_factors(sympy.Matrix(entries), domain=sympy.ZZ)
        assert ours == [abs(int(f)) for f in theirs if f], entries
        deficient += len(ours) < min(nr, nc)
    assert 0 < deficient < 300  # both rank-deficient and full-rank cases ran
