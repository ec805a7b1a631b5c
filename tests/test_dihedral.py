import random
import sys
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ajimage.dihedral import (
    ArrangementType,
    CoverSpectrum,
    CoverVerdict,
    RelationStatus,
    cover_spectrum,
    d2n_cover_exists,
    is_divisible,
    verify_ns_relation,
)
from ajimage import nslattice
from ajimage.errors import MissingIntersectionError, SchemaError
from ajimage.exact import smith_normal_form
from ajimage.fourlines import eminus_profile, eplus_profile, four_line_surface, ns_relation
from ajimage.kodaira import AbelianGroup
from ajimage.mwgroup import MWPoint, abel_jacobi_image
from ajimage.nslattice import FormalClass, SYM_F, SectionProfile, build_table, theta

from oracles import group_elements, mw_scale, plus

Z22 = AbelianGroup((2, 2))


def relation_table(variant, cfg=None):
    return build_table(
        cfg or four_line_surface(),
        [eplus_profile(variant), eminus_profile(variant)],
    )


def test_is_divisible_goldens():
    assert is_divisible(MWPoint(4), 4, Z22) == MWPoint(1, (0, 0))
    assert is_divisible(MWPoint(4), 6, Z22) is None
    for n in (2, 3, 5, 8):
        # the zero witness is an MWPoint, so it reads as "divisible" too
        witness = is_divisible(MWPoint(0, (0, 0)), n, Z22)
        assert witness and witness == MWPoint(0, (0, 0))


def test_is_divisible_torsion_cases():
    assert is_divisible(MWPoint(0, (1, 0)), 2, Z22) is None
    assert is_divisible(MWPoint(0, (1, 1)), 3, Z22) == MWPoint(0, (1, 1))
    assert is_divisible(MWPoint(6, (1, 0)), 3, Z22) == MWPoint(2, (1, 0))
    z4 = AbelianGroup((4,))
    assert is_divisible(MWPoint(0, (2,)), 2, z4) == MWPoint(0, (1,))
    assert is_divisible(MWPoint(0, (1,)), 2, z4) is None
    assert is_divisible(MWPoint(0, (1,)), 3, z4) == MWPoint(0, (3,))


def test_is_divisible_rejects_small_n():
    with pytest.raises(SchemaError, match="n >= 2"):
        is_divisible(MWPoint(4), 1, Z22)


GROUPS = [AbelianGroup(()), AbelianGroup((2, 2)), AbelianGroup((4,)),
          AbelianGroup((3,)), AbelianGroup((2, 6))]


def test_divisibility_matches_brute_force():
    for group in GROUPS:
        for n in range(2, 8):
            for coords in group_elements(group):
                for free in (-8, -n, -1, 0, 1, 4, n, 2 * n + 1):
                    got = is_divisible(MWPoint(free, coords), n, group)
                    want = free % n == 0 and any(
                        group.scale(n, x) == coords for x in group_elements(group)
                    )
                    assert (got is not None) == want, (group, n, coords, free)
                    if got:
                        back = mw_scale(n, got, group)
                        assert back.free_coeff == free
                        assert back.torsion == group.reduce(coords)


@given(
    st.integers(min_value=-50, max_value=50),
    st.tuples(st.integers(0, 1), st.integers(0, 1)),
    st.integers(min_value=2, max_value=12),
)
def test_divisibility_completeness(k, coords, n):
    x = MWPoint(k, coords)
    q = mw_scale(n, x, Z22)
    witness = is_divisible(q, n, Z22)
    assert witness is not None
    assert mw_scale(n, witness, Z22) == q


def test_cover_decision_table():
    assert all(d2n_cover_exists(ArrangementType.TYPE_I, n).exists for n in range(3, 51))
    type2 = {n for n in range(3, 51) if d2n_cover_exists(ArrangementType.TYPE_II, n)}
    assert type2 == {4}
    v4 = d2n_cover_exists("II", 4)
    assert v4.exists and v4.witness == MWPoint(1, (0, 0))


def test_cover_table_from_computed_points():
    # one rule for both types: P_{E+} - P_{E-} is n-divisible, with both
    # points computed on the type's bundled surface; the type's cover set
    # decides it, and each verdict reads membership
    for atype, variant, want in (("I", "collinear", set(range(3, 3000))),
                                 ("II", "noncollinear", {4})):
        t = relation_table(variant)
        plus, minus = (abel_jacobi_image(t, name, "s_o") for name in ("E+", "E-"))
        diff = MWPoint(plus.free_coeff - minus.free_coeff,
                       Z22.add(plus.torsion, Z22.neg(minus.torsion)))
        spectrum = cover_spectrum(atype)
        got = set()
        for n in range(3, 3000):
            verdict = d2n_cover_exists(atype, n)
            witness = is_divisible(diff, n, Z22)
            assert (n in spectrum) == verdict.exists == (witness is not None), (atype, n)
            assert verdict.witness == witness
            if n % 2:  # 2 is invertible on the odd part: dividing P_{E+} is the same
                assert verdict.exists == (is_divisible(plus, n, Z22) is not None)
            if verdict:
                got.add(n)
                assert mw_scale(n, verdict.witness, Z22) == diff
            joined = " ".join(verdict.reasons)
            assert str(plus) in joined and str(minus) in joined and str(diff) in joined
        assert got == want
    assert str(d2n_cover_exists("II", 4).witness) == "1*P_o + 0"
    assert str(d2n_cover_exists("I", 5).witness) == "O"


@given(st.integers(min_value=-60, max_value=60), st.integers(min_value=1, max_value=12),
       st.data())
def test_cover_spectrum_matches_is_divisible(a, m1, data):
    # Z/m1 x Z/m2 with m1 | m2 <= 12; a factor 1 drops out of the group.
    # a = 0 is a branch of its own (a residue set), so every draw checks it
    m2 = data.draw(st.sampled_from(range(m1, 13, m1)))
    group = AbelianGroup(tuple(m for m in (m1, m2) if m > 1))
    t = data.draw(st.sampled_from(list(group_elements(group))))
    for q in (MWPoint(a, t), MWPoint(0, t)):
        spectrum = CoverSpectrum.of(q, group)
        for n in range(3, 200):
            assert (n in spectrum) == (is_divisible(q, n, group) is not None), (q, n)


def test_cover_verdict_reasons():
    v7 = d2n_cover_exists("I", 7)
    assert v7.exists and all(isinstance(r, str) and r for r in v7.reasons)
    v9 = d2n_cover_exists("II", 9)
    assert not v9.exists and "no point X satisfies 9*X" in " ".join(v9.reasons)
    v6 = d2n_cover_exists("II", 6)
    assert not v6.exists and "4*P_o" in " ".join(v6.reasons)
    assert bool(v4 := d2n_cover_exists("II", 4)) and isinstance(v4, CoverVerdict)


def test_cover_rejects_small_n():
    with pytest.raises(SchemaError, match="n >= 3"):
        d2n_cover_exists("II", 2)


def test_arrangement_type_parse():
    assert ArrangementType.parse("I") is ArrangementType.TYPE_I
    assert ArrangementType.parse("ii") is ArrangementType.TYPE_II
    assert ArrangementType.parse("Type II") is ArrangementType.TYPE_II
    assert ArrangementType.parse(ArrangementType.TYPE_I) is ArrangementType.TYPE_I
    assert str(ArrangementType.TYPE_II) == "Type II"
    with pytest.raises(SchemaError, match="arrangement type"):
        ArrangementType.parse("III")


def test_ns_relations_hold():
    for variant in ("collinear", "noncollinear"):
        t = relation_table(variant)
        lhs, rhs = ns_relation(variant)
        verdict = verify_ns_relation(t, lhs, rhs)
        assert verdict.status is RelationStatus.HOLDS and verdict


def test_ns_relation_goldens():
    # the shipped relations, written out: E+ ~ T(E+) + n phi0(s_o)
    o, f, s_o = nslattice.SYM_O, SYM_F, nslattice.section_sym("s_o")
    inf = [theta("inf", i) for i in range(5)]
    t11 = theta("1", 1)
    eplus = FormalClass.of(nslattice.divisor_sym("E+"))
    assert ns_relation("collinear") == (
        eplus, FormalClass({o: 3, f: 3, inf[1]: -2, inf[2]: -2, inf[3]: -2, inf[4]: -3}))
    assert ns_relation("noncollinear") == (
        eplus, FormalClass({s_o: 2, o: 1, f: 1, inf[2]: -1, inf[3]: -1, inf[4]: -1, t11: 1}))
    # the paper's form of the noncollinear relation, tying E+ to E-
    lhs = FormalClass({nslattice.divisor_sym("E+"): 1, nslattice.divisor_sym("E-"): -1,
                       inf[2]: 2, inf[3]: 2, t11: 2})
    rhs = FormalClass({s_o: 4, o: -4, f: -4, inf[1]: 4, inf[2]: 4, inf[3]: 4, inf[4]: 4, t11: 4})
    assert verify_ns_relation(relation_table("noncollinear"), lhs, rhs)


def test_type1_relation_squares():
    t = relation_table("collinear")
    lhs, rhs = ns_relation("collinear")
    assert t.pair_class(lhs, lhs) == 3
    assert t.pair_class(rhs, rhs) == 3


def test_relation_fails_on_perturbation():
    t = relation_table("collinear")
    lhs, rhs = ns_relation("collinear")
    verdict = verify_ns_relation(t, lhs, plus(rhs, {SYM_F: 1}))
    assert verdict.status is RelationStatus.FAILS and not verdict
    assert verdict.mismatches
    bad_theta = plus(rhs, {theta("2", 1): 1})
    assert verify_ns_relation(t, lhs, bad_theta).status is RelationStatus.FAILS


def test_relation_inconclusive_without_generator():
    cfg = replace(four_line_surface(), sections=())
    t = build_table(cfg, [replace(eplus_profile("collinear"), d_dot_section={})])
    lhs, rhs = ns_relation("collinear")
    verdict = verify_ns_relation(t, lhs, rhs)
    assert verdict.status is RelationStatus.INCONCLUSIVE
    assert not verdict  # never silently true
    assert "rank" in verdict.detail
    # syntactic equality stays decidable even on the deficient table
    assert verify_ns_relation(t, lhs, lhs).status is RelationStatus.HOLDS


def test_relation_equivalence_properties():
    t = relation_table("collinear")
    a, b = ns_relation("collinear")
    # a third representative: swap F for the two components of the fiber over "1"
    c = plus(b, {SYM_F: -1, theta("1", 0): 1, theta("1", 1): 1})
    assert verify_ns_relation(t, a, a).status is RelationStatus.HOLDS
    assert verify_ns_relation(t, a, b).status is RelationStatus.HOLDS
    assert verify_ns_relation(t, b, a).status is RelationStatus.HOLDS
    assert verify_ns_relation(t, b, c).status is RelationStatus.HOLDS
    assert verify_ns_relation(t, a, c).status is RelationStatus.HOLDS


def test_relation_rank_runs_no_smith_reduction(monkeypatch):
    # the rank is Shioda-Tate's closed form; the catalogs' Smith reductions
    # ran when the table was built, and no other elimination runs
    t = relation_table("collinear")
    lhs, rhs = ns_relation("collinear")
    calls = []

    def counting(block):
        calls.append(block)
        return smith_normal_form(block)

    for name, module in list(sys.modules.items()):
        if name.partition(".")[0] == "ajimage" and hasattr(module, "smith_normal_form"):
            monkeypatch.setattr(module, "smith_normal_form", counting)
    for _ in range(2):
        verdict = verify_ns_relation(t, lhs, rhs)
        assert verdict.status is RelationStatus.HOLDS
        assert verdict.detail.endswith("over a rank-10 spanning set")
    assert calls == []


def test_relation_on_two_sections_needs_their_pairing():
    # nothing registers s_o.s2, so neither a profile nor the rank can be read;
    # s2 = s_o + t1 is a section of the surface
    cfg = four_line_surface()
    s2 = SectionProfile("s2", 0, {"1": 1, "2": 1, "3": 1})
    cfg = replace(cfg, sections=cfg.sections + (s2,))
    t = relation_table("collinear", cfg)
    with pytest.raises(MissingIntersectionError, match="E\\+.s2"):
        verify_ns_relation(t, *ns_relation("collinear"))
    # F = Theta_{1,0} + Theta_{1,1} agrees on every profile entry; the rank
    # then needs s_o.s2
    fiber = FormalClass({theta("1", 0): 1, theta("1", 1): 1})
    with pytest.raises(MissingIntersectionError, match="s_o.s2"):
        verify_ns_relation(t, FormalClass.of(SYM_F), fiber)


def test_identical_sides_must_be_symbols_of_the_table():
    # the identical-sides shortcut once answered HOLDS on a symbol no table has
    t = relation_table("collinear")
    x = FormalClass.of(theta("nope", 1))
    message = "Theta\\[nope,1\\] is not a symbol of this table"
    with pytest.raises(KeyError, match=message):
        verify_ns_relation(t, x, FormalClass.of(nslattice.SYM_O))
    with pytest.raises(KeyError, match=message):
        verify_ns_relation(t, x, x)
    # identical sides of this table's symbols hold, even where a pairing is a
    # gap: nothing registers the self-intersection of a divisor without D^2
    t = build_table(four_line_surface(), [replace(eplus_profile("collinear"), d_squared=None)])
    y = FormalClass({nslattice.divisor_sym("E+"): 1, theta("inf", 0): 1})
    with pytest.raises(MissingIntersectionError, match="E\\+.E\\+"):
        t.pair_class(y, y)
    assert verify_ns_relation(t, y, y).status is RelationStatus.HOLDS


def test_mw_scale():
    rng = random.Random(11)
    for group in GROUPS:
        for _ in range(20):
            k = rng.randint(-9, 9)
            coords = tuple(rng.randrange(f) for f in group.invariant_factors)
            p = MWPoint(k, coords)
            assert mw_scale(1, p, group) == MWPoint(k, coords)
            two = mw_scale(2, p, group)
            assert two.free_coeff == 2 * k
            assert two.torsion == group.add(coords, coords)
