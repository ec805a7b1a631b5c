from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajimage.exact import QMatrix, SmithForm, smith_normal_form

from oracles import coset_orders, det_cofactor, inverse_adjugate, abelian_order_multiset

# The I0* fiber's intersection matrix and its known exact inverse; this pair
# is the main golden value the rest of the library leans on.
I0STAR = [[-2, 0, 0, 1], [0, -2, 0, 1], [0, 0, -2, 1], [1, 1, 1, -2]]
I0STAR_INV = [
    [Fraction(-1), Fraction(-1, 2), Fraction(-1, 2), Fraction(-1)],
    [Fraction(-1, 2), Fraction(-1), Fraction(-1, 2), Fraction(-1)],
    [Fraction(-1, 2), Fraction(-1, 2), Fraction(-1), Fraction(-1)],
    [Fraction(-1), Fraction(-1), Fraction(-1), Fraction(-2)],
]


def square_int_matrices(n, lo=-5, hi=5):
    return st.lists(
        st.lists(st.integers(lo, hi), min_size=n, max_size=n), min_size=n, max_size=n
    )


def test_inverse_golden_i0star():
    assert smith_normal_form(I0STAR).inverse() == QMatrix(I0STAR_INV)


def test_inverse_identity():
    assert smith_normal_form(QMatrix.identity(4)).inverse() == QMatrix.identity(4)


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
    m = QMatrix(entries)
    inv = sf.inverse()
    assert inv == QMatrix(inverse_adjugate(entries))
    assert m * inv == QMatrix.identity(m.nrows)
    assert inv * m == QMatrix.identity(m.nrows)


def check_smith_form(entries, sf: SmithForm):
    nr, nc = len(entries), len(entries[0])
    u, s, v = QMatrix(sf.u), QMatrix(sf.s), QMatrix(sf.v)
    assert u * QMatrix(entries) * v == s
    assert abs(det_cofactor(sf.u)) == 1
    assert abs(det_cofactor(sf.v)) == 1
    # diagonal, nonnegative, divisibility chain with zeros last
    for i in range(nr):
        for j in range(nc):
            if i != j:
                assert s[i, j] == 0
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
    with pytest.raises(ValueError):
        smith_normal_form([[Fraction(1, 2)]])


@settings(max_examples=100)
@given(
    st.tuples(st.integers(1, 4), st.integers(1, 4)).flatmap(
        lambda shape: st.lists(
            st.lists(st.integers(-6, 6), min_size=shape[1], max_size=shape[1]),
            min_size=shape[0],
            max_size=shape[0],
        )
    )
)
def test_smith_unimodular_transforms(entries):
    sf = smith_normal_form(entries)
    check_smith_form(entries, sf)
