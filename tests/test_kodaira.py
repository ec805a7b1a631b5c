import hashlib
import random
from fractions import Fraction
from math import gcd
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajimage.exact import QMatrix
from ajimage.kodaira import (
    MAX_COMPONENTS,
    AbelianGroup,
    FiberKind,
    _components,
    dual_class_of,
    fiber_data,
    incidence_class,
)

from oracles import abelian_order_multiset, coset_orders, det_cofactor, inverse_adjugate

ALL_KINDS = (
    ["I2", "I3", "I4", "I5", "I6", "I7"]
    + ["I0*", "I1*", "I2*", "I3*", "I4*"]
    + ["III", "IV", "III*", "IV*", "II*"]
)


def test_parse():
    assert FiberKind.parse("I0*") == FiberKind("I*", 0)
    assert FiberKind.parse("I12") == FiberKind("I", 12)
    assert FiberKind.parse("II*") == FiberKind("II*")
    assert str(FiberKind.parse("I3*")) == "I3*"
    for bad in ("I0", "I1", "II", "V", "I*", "junk"):
        with pytest.raises(ValueError):
            FiberKind.parse(bad)


@pytest.mark.parametrize("family, n, message", [
    ("I", 1, "fiber I1 is irreducible"),
    ("II", None, "fiber II is irreducible"),
    ("I*", None, "I / I* kinds need an index"),
    ("Q", None, "unknown fiber family 'Q'; expected one of I, I*, II*, III, III*, IV, IV*"),
    ("I*", -1, "fiber I*_n needs n >= 0, not -1"),
    ("III", 2, "fiber III takes no index, not 2"),
    ("IV", 0, "fiber IV takes no index, not 0"),
    ("IV*", 1, "fiber IV* takes no index, not 1"),
    ("III*", 3, "fiber III* takes no index, not 3"),
    ("II*", 5, "fiber II* takes no index, not 5"),
])
def test_invalid_kind_cannot_be_built(family, n, message):
    # before, FiberKind("I*", -1), ("II*", 5) and ("Q") were built, and
    # fiber_data then raised IndexError, succeeded and raised KeyError
    with pytest.raises(ValueError) as exc:
        FiberKind(family, n)
    assert str(exc.value) == message


def test_kind_index_and_group_factors_are_read_exactly():
    # integral rationals become ints (the float and bool refusals are in
    # tests/test_exact.py); at one time FiberKind("I", 5.0) was built and
    # AbelianGroup((2.0, 4)) described itself as "Z/2.0 x Z/4"
    kind = FiberKind("I", Fraction(5))
    assert type(kind.n) is int and kind == FiberKind("I", 5) and fiber_data(kind).m == 5
    assert AbelianGroup((Fraction(2), 4)).describe() == "Z/2 x Z/4"
    with pytest.raises(ValueError, match="invariant factor must be an integer, not 5/2"):
        AbelianGroup((Fraction(5, 2),))


def test_i0star_golden():
    data = fiber_data("I0*")
    assert data.m == 5
    assert data.multiplicities == (1, 1, 1, 1, 2)
    assert data.a == QMatrix([[-2, 0, 0, 1], [0, -2, 0, 1], [0, 0, -2, 1], [1, 1, 1, -2]])
    assert data.a_inv == QMatrix(
        [
            [-1, Fraction(-1, 2), Fraction(-1, 2), -1],
            [Fraction(-1, 2), -1, Fraction(-1, 2), -1],
            [Fraction(-1, 2), Fraction(-1, 2), -1, -1],
            [-1, -1, -1, -2],
        ]
    )
    assert data.simple == (1, 2, 3)
    assert data.group == AbelianGroup((2, 2))
    assert data.euler == 6


def test_i2_i3_golden():
    d2 = fiber_data("I2")
    assert d2.a == QMatrix([[-2]])
    assert d2.a_inv == QMatrix([[Fraction(-1, 2)]])
    assert d2.group.invariant_factors == (2,)
    assert d2.euler == 2
    d3 = fiber_data("I3")
    assert d3.a == QMatrix([[-2, 1], [1, -2]])
    assert d3.group.invariant_factors == (3,)


def test_inverse_matches_adjugate_oracle():
    for kind in ALL_KINDS:
        data = fiber_data(kind)
        assert data.a_inv == QMatrix(inverse_adjugate(data.a.rows)), kind


@pytest.mark.parametrize("kind", ["I100", "I100*"])
def test_inverse_times_matrix_is_identity_on_large_fibers(kind):
    # in integers: A times the numerators of A^{-1} is den times the identity
    data = fiber_data(kind)
    k = data.m - 1
    assert data.a.den == 1
    den = data.a_inv.den
    cols = list(zip(*data.a_inv.num))
    for i in range(k):
        assert [sum(x * y for x, y in zip(data.a.num[i], col)) for col in cols] == [
            den * (i == j) for j in range(k)
        ], (kind, i)


@pytest.mark.parametrize("kind", ALL_KINDS + ["I40", "I100*"])
def test_inverse_denominator_is_the_group_exponent(kind):
    # the least d with d A^{-1} integral is the exponent of Z^k / A Z^k: the
    # last invariant factor of the component group, 1 for the trivial II*
    data = fiber_data(kind)
    factors = data.group.invariant_factors
    assert data.a_inv.den == (factors[-1] if factors else 1)
    assert gcd(data.a_inv.den, *(x for row in data.a_inv.num for x in row)) == 1


def test_inverse_diagonal_matches_shioda_closed_forms():
    # Shioda, "On the Mordell-Weil lattices" (1990), section 8: the local
    # height contributions are the negated diagonal entries of A^{-1}
    n = 100
    data = fiber_data(f"I{n}")
    for i in range(1, n):
        assert data.a_inv[i - 1, i - 1] == Fraction(-i * (n - i), n), i
    data = fiber_data(f"I{n}*")
    assert data.a_inv[0, 0] == -1  # the near leg Theta_1
    for far in (2, 3):
        assert data.a_inv[far - 1, far - 1] == -(1 + Fraction(n, 4)), far


def test_multiplicity_one_on_cycle():
    data = fiber_data("I6")
    assert data.multiplicities == (1,) * 6
    assert data.simple == (1, 2, 3, 4, 5)


def test_fiber_relation_all_kinds():
    # F . Theta_j = 0 with a_0 = 1 gives Theta_0 . Theta_j = -sum_{i>=1} a_i A_ij
    # for j >= 1, which must be a nonnegative intersection of distinct
    # components; F . Theta_0 = 0 with Theta_0^2 = -2 then reads
    # sum_{j>=1} a_j (Theta_0 . Theta_j) = 2
    for kind in ALL_KINDS + ["I100", "I100*"]:
        data = fiber_data(kind)
        mults = data.multiplicities[1:]
        theta0 = [-sum(map(mul, mults, col)) for col in zip(*data.a.num)]
        assert all(x >= 0 for x in theta0), kind
        assert sum(map(mul, mults, theta0)) == 2, kind


def test_group_order_is_det():
    for kind in ALL_KINDS:
        data = fiber_data(kind)
        assert data.group.order == abs(det_cofactor(data.a.rows)), kind


def test_group_matches_coset_oracle():
    for kind in ALL_KINDS:
        data = fiber_data(kind)
        gram = [[-int(x) for x in row] for row in data.a.rows]
        assert coset_orders(gram) == abelian_order_multiset(data.group.invariant_factors), kind


def test_istar_group_parity():
    for n in range(5):
        fac = fiber_data(f"I{n}*").group.invariant_factors
        assert fac == ((2, 2) if n % 2 == 0 else (4,)), n


def test_known_groups():
    assert fiber_data("I5").group.invariant_factors == (5,)
    assert fiber_data("III").group.invariant_factors == (2,)
    assert fiber_data("IV").group.invariant_factors == (3,)
    assert fiber_data("III*").group.invariant_factors == (2,)
    assert fiber_data("IV*").group.invariant_factors == (3,)
    assert fiber_data("II*").group.invariant_factors == ()
    assert fiber_data("II*").group.describe() == "trivial"


def test_euler_numbers():
    expected = {"I2": 2, "I7": 7, "I0*": 6, "I3*": 9, "III": 3, "IV": 4, "III*": 9, "IV*": 8, "II*": 10}
    for kind, e in expected.items():
        assert fiber_data(kind).euler == e, kind


def test_component_count_from_kind():
    for kind in ALL_KINDS + ["I100", "I100*"]:
        assert _components(FiberKind.parse(kind)) == fiber_data(kind).m, kind


def test_catalog_size_cap():
    assert MAX_COMPONENTS == 256
    assert _components(FiberKind.parse("I251*")) == MAX_COMPONENTS
    for kind in ("I257", "I252*", "I100000"):
        with pytest.raises(ValueError, match="MAX_COMPONENTS"):
            fiber_data(kind)


def test_dual_classes_i0star():
    data = fiber_data("I0*")
    e1, e2, e3 = (dual_class_of(data, i) for i in (1, 2, 3))
    g = data.group
    assert dual_class_of(data, 0) == g.zero()
    assert dual_class_of(data, 4) == g.zero()  # the central component is in R
    nonzero = {e1, e2, e3}
    assert len(nonzero) == 3 and g.zero() not in nonzero
    # pairwise sums give the third class
    assert g.add(e1, e2) == e3
    assert g.add(e1, e3) == e2
    assert g.add(e2, e3) == e1


def test_dual_classes_cycle():
    data = fiber_data("I5")
    g = data.group
    classes = [dual_class_of(data, i) for i in range(5)]
    assert classes[0] == g.zero()
    assert len(set(classes)) == 5
    with pytest.raises(ValueError) as exc:
        dual_class_of(fiber_data("I4"), 4)
    assert str(exc.value) == "I4 has components 0..3"
    # the cycle components form the full cyclic group, consecutive steps equal
    step = classes[1]
    acc = g.zero()
    for c in classes:
        assert c == acc
        acc = g.add(acc, step)


# Dual class of every component, as the one Smith reduction prints it: the
# basis of the component group is read off its row transform U, so a change
# of pivot order that moves the basis fails here before any CLI golden.
DUAL_CLASSES = {
    "I2": [(0,), (1,)],
    "I3": [(0,), (2,), (1,)],
    "I4": [(0,), (3,), (2,), (1,)],
    "I5": [(0,), (4,), (3,), (2,), (1,)],
    "I6": [(0,), (5,), (4,), (3,), (2,), (1,)],
    "I7": [(0,), (6,), (5,), (4,), (3,), (2,), (1,)],
    "I8": [(0,), (7,), (6,), (5,), (4,), (3,), (2,), (1,)],
    "I9": [(0,), (8,), (7,), (6,), (5,), (4,), (3,), (2,), (1,)],
    "I10": [(0,), (9,), (8,), (7,), (6,), (5,), (4,), (3,), (2,), (1,)],
    "I11": [(0,), (10,), (9,), (8,), (7,), (6,), (5,), (4,), (3,), (2,), (1,)],
    "I12": [(0,), (11,), (10,), (9,), (8,), (7,), (6,), (5,), (4,), (3,), (2,), (1,)],
    "I0*": [(0, 0), (1, 0), (0, 1), (1, 1), (0, 0)],
    "I1*": [(0,), (2,), (1,), (3,), (0,), (2,)],
    "I2*": [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (1, 0), (0, 0)],
    "I3*": [(0,), (2,), (1,), (3,), (0,), (2,), (0,), (2,)],
    "I4*": [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (1, 0), (0, 0), (1, 0), (0, 0)],
    "I5*": [(0,), (2,), (1,), (3,), (0,), (2,), (0,), (2,), (0,), (2,)],
    "I6*": [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (1, 0), (0, 0), (1, 0), (0, 0), (1, 0), (0, 0)],
    "I7*": [(0,), (2,), (1,), (3,), (0,), (2,), (0,), (2,), (0,), (2,), (0,), (2,)],
    "I8*": [(0, 0), (1, 0), (1, 1), (0, 1), (0, 0), (1, 0), (0, 0), (1, 0), (0, 0), (1, 0), (0, 0), (1, 0), (0, 0)],
    "III": [(0,), (1,)],
    "IV": [(0,), (2,), (1,)],
    "IV*": [(0,), (0,), (0,), (2,), (1,), (1,), (2,)],
    "III*": [(0,), (0,), (0,), (0,), (1,), (0,), (1,), (1,)],
    "II*": [(), (), (), (), (), (), (), (), ()],
}

# sha256 of repr(tuple of dual_class_of(data, i) for every component i)
DUAL_CLASS_SHA256 = {
    "I100": "142d0e4b0c6c61718bbbe4f60e2982d0474317eb7444dffe0dd1687738a03dda",
    "I100*": "df3c58584951d5b69205b23a4f79b16eab084c4a692b6720b592d87721c07b8c",
    "I200*": "9952f04f430d41166c11fae36355b387b887a713cd33a388859ad721ff26024e",
    "I256": "462d1cf89b4b72ca7b385d9fc3b6b94eafa7dfc00cb999764ad38c0d3ea41900",
}


@pytest.mark.parametrize("kind", sorted(DUAL_CLASSES))
def test_dual_class_goldens(kind):
    data = fiber_data(kind)
    assert [dual_class_of(data, i) for i in range(data.m)] == DUAL_CLASSES[kind]


@pytest.mark.parametrize("kind", sorted(DUAL_CLASS_SHA256))
def test_dual_class_digests_on_large_fibers(kind):
    data = fiber_data(kind)
    classes = tuple(dual_class_of(data, i) for i in range(data.m))
    assert hashlib.sha256(repr(classes).encode()).hexdigest() == DUAL_CLASS_SHA256[kind]


@pytest.mark.parametrize("kind, group", [("I256", (256,)), ("I251*", (4,))])
def test_catalogs_at_the_size_cap(kind, group):
    # the largest kinds MAX_COMPONENTS admits; Shioda's closed forms give
    # -(A^-1)_ii = i (n - i) / n on I_n, and 1 on the near legs and 1 + n/4
    # on the far legs of I*_n
    data = fiber_data(kind)
    assert data.m == MAX_COMPONENTS
    assert data.group.invariant_factors == group
    assert data.a_inv.den == group[-1]
    num, den = data.a_inv.num, data.a_inv.den
    diagonal = [Fraction(-num[i][i], den) for i in range(data.m - 1)]
    n = data.kind.n
    if data.kind.family == "I":
        assert diagonal == [Fraction(i * (n - i), n) for i in range(1, n)]
    else:
        assert diagonal[:3] == [1, 1 + Fraction(n, 4), 1 + Fraction(n, 4)]


def test_reduce_golden():
    # c = (-A) x for x = (-2, -2, -2, -3), a vector of R itself: class zero
    i0star = fiber_data("I0*")
    assert incidence_class(i0star, (-1, -1, -1, 0)) == (0, 0)
    # c = 3 is x = 3/2 on I2: the class of Theta_1
    i2 = fiber_data("I2")
    assert incidence_class(i2, (3,)) != (0,)
    assert incidence_class(i2, (3,)) == dual_class_of(i2, 1)
    for i in range(1, i0star.m):
        unit = tuple(int(i == j) for j in range(1, i0star.m))
        assert incidence_class(i0star, unit) == dual_class_of(i0star, i)


def test_incidence_class_rejects_wrong_length():
    with pytest.raises(ValueError):
        incidence_class(fiber_data("I0*"), (1, 2, 3))
    with pytest.raises(ValueError):
        incidence_class(fiber_data("I2"), (1, 0))


def test_reduce_shift_invariance():
    # shifting x = -A^{-1} c by a lattice vector y moves c to c - A y
    rng = random.Random(7)
    for kind in ("I0*", "I4", "IV*", "I3*"):
        data = fiber_data(kind)
        k = data.m - 1
        for _ in range(25):
            c = [rng.randint(-4, 4) for _ in range(k)]
            y = [rng.randint(-3, 3) for _ in range(k)]
            shifted = [ci - sum(map(mul, row, y)) for ci, row in zip(c, data.a.num)]
            assert incidence_class(data, c) == incidence_class(data, shifted)


def test_reduce_is_additive():
    rng = random.Random(11)
    for kind in ("I0*", "I5", "III*"):
        data = fiber_data(kind)
        g = data.group
        k = data.m - 1
        for _ in range(25):
            c = [rng.randint(-4, 4) for _ in range(k)]
            d = [rng.randint(-4, 4) for _ in range(k)]
            both = [a + b for a, b in zip(c, d)]
            assert incidence_class(data, both) == g.add(
                incidence_class(data, c), incidence_class(data, d)
            )


def test_simple_components_biject_with_group():
    for kind in ALL_KINDS:
        data = fiber_data(kind)
        classes = {data.group.zero()} | {dual_class_of(data, i) for i in data.simple}
        assert len(classes) == 1 + len(data.simple) == data.group.order, kind


def test_abelian_group_validation():
    with pytest.raises(ValueError):
        AbelianGroup((2, 3))  # not a divisibility chain
    with pytest.raises(ValueError):
        AbelianGroup((1,))
    g = AbelianGroup((2, 4))
    assert g.order == 8
    assert g.scale(3, (1, 3)) == (1, 1)
    assert g.neg((1, 1)) == (1, 3)
    with pytest.raises(ValueError, match="coordinate length mismatch"):
        g.add((1,), (1, 0))


TORSION_GROUPS = ((2, 2), (4,), (2, 4), (3,))


@st.composite
def group_operands(draw):
    factors = draw(st.sampled_from(TORSION_GROUPS))
    coords = st.tuples(*(st.integers(-50, 50) for _ in factors))
    return factors, draw(coords), draw(coords), draw(st.integers(-20, 20))


@settings(max_examples=200)
@given(group_operands())
def test_group_operations_match_reduce_everything_oracle(case):
    # any integer tuples, negative and unreduced too: one % per coordinate
    # must equal reducing both operands and then the result
    factors, a, b, k = case
    g = AbelianGroup(factors)

    def red(values):
        return tuple(x % f for x, f in zip(values, factors))

    assert g.add(a, b) == red([x + y for x, y in zip(red(a), red(b))])
    assert g.neg(a) == red([-x for x in red(a)])
    assert g.scale(k, a) == red([k * x for x in red(a)])
    for bad in (a[:-1], a + (0,)):
        with pytest.raises(ValueError):
            g.add(bad, b)
        with pytest.raises(ValueError):
            g.add(b, bad)
        with pytest.raises(ValueError):
            g.neg(bad)
        with pytest.raises(ValueError):
            g.scale(k, bad)


def test_group_operations_do_not_reduce(monkeypatch):
    def refuse(self, coords):
        raise AssertionError("reduce called")

    monkeypatch.setattr(AbelianGroup, "reduce", refuse)
    g = AbelianGroup((2, 4))
    assert g.add((3, -1), (1, 9)) == (0, 0)
    assert g.neg((5, 6)) == (1, 2)
    assert g.scale(-3, (1, 7)) == (1, 3)
