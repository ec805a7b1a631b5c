import hashlib
import random
from dataclasses import replace
from fractions import Fraction
from functools import cache
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ajimage import fourlines
from ajimage.configio import bundled_config, load_config
from ajimage.errors import InconsistentDataError, SchemaError
from ajimage.exact import QMatrix
from ajimage.fourlines import GENERATOR, eminus_profile, eplus_profile, four_line_surface
from ajimage.kodaira import AbelianGroup, FiberKind, dual_class_of, fiber_data, incidence_class
from ajimage.mwgroup import MWPoint, abel_jacobi_image, derive
from ajimage.nslattice import (
    SYM_F,
    SYM_O,
    DivisorProfile,
    FormalClass,
    SectionProfile,
    SurfaceConfig,
    TorsionSectionSpec,
    build_table,
    section_sym,
    theta,
)

from oracles import (
    inverse_adjugate,
    profile_from_class,
    section_as_divisor,
    section_height,
    torsion_profile,
)


def table_with(*divisors, variant=None):
    cfg = four_line_surface()
    divs = list(divisors)
    if variant is not None:
        divs = [eplus_profile(variant), eminus_profile(variant)] + divs
    return build_table(cfg, divs)


# an ordinary divisor with the numbers of O (no divisor may be named O)
O_LIKE = DivisorProfile("O_like", d=1, d_dot_o=-1, c={}, d_squared=-1)


def is_zero(classes):
    return not any(map(any, classes))


def test_gamma_ns_goldens():
    # the gamma vectors -A_v^{-1} c(v, D) of the derivation, in fiber order
    t = table_with(variant="noncollinear")
    vecs = derive(t, "E+", "s_o").gamma_vectors
    assert vecs[0] == (2, 2, 2, 3)
    assert vecs[1] == (0,)
    t2 = table_with(section_as_divisor(table_with(), "s_o"))
    vecs2 = derive(t2, "s_o", "s_o").gamma_vectors
    assert vecs2[0] == (1, Fraction(1, 2), Fraction(1, 2), 1)
    assert vecs2[1] == (Fraction(1, 2),)
    assert vecs2[2] == (0,)


def test_gamma_bar_goldens():
    assert is_zero(derive(table_with(variant="noncollinear"), "E+", "s_o").gamma_classes)
    s = section_as_divisor(table_with(), "s_o")
    der = derive(table_with(s), "s_o", "s_o")
    assert der.gamma_classes == (dual_class_of(fiber_data("I0*"), 1), (1,), (0,), (0,))
    # 2 s_o: the classes vanish (exponent 2) and n = 2
    two = DivisorProfile(
        "2s", 2, 2 * s.d_dot_o, {fid: tuple(2 * x for x in c) for fid, c in s.c.items()},
        d_squared=4 * s.d_squared, d_dot_section={"s_o": 2 * s.d_squared},
    )
    der2 = derive(table_with(two), "2s", "s_o")
    assert is_zero(der2.gamma_classes) and der2.point == MWPoint(2, (0, 0))


def test_gamma_bar_of_section_profile_matches_divisor_route():
    # the classes read off c(v, s_o) equal the dual classes of the components
    # s_o meets, so the residual at n = 1 vanishes
    base = table_with()
    t = table_with(section_as_divisor(base, "s_o"))
    der = derive(t, "s_o", "s_o")
    components = t.sections["s_o"].components
    assert der.gamma_classes == tuple(
        dual_class_of(t.fibers[fid], components.get(fid, 0)) for fid, _ in t.cfg.fibers
    )
    assert der.free.n == 1 and is_zero(der.torsion_residual)


def test_gamma_additivity():
    rng = random.Random(5)
    fibers = [fiber_data(kind) for _, kind in four_line_surface().fibers]
    for _ in range(20):
        for data in fibers:
            c1 = tuple(rng.randint(-3, 3) for _ in range(data.m - 1))
            c2 = tuple(rng.randint(-3, 3) for _ in range(data.m - 1))
            csum = tuple(a + b for a, b in zip(c1, c2))
            assert incidence_class(data, csum) == data.group.add(
                incidence_class(data, c1), incidence_class(data, c2)
            )


def test_integrality_constraint():
    # A_v^{-1} c(v, D) is integral exactly where s(D) meets the identity
    # component, i.e. where the gamma class vanishes
    def integral(table, name):
        der = derive(table, name, "s_o")
        flags = [all(x.denominator == 1 for x in vec) for vec in der.gamma_vectors]
        assert flags == [not any(part) for part in der.gamma_classes]
        return flags

    t = table_with(O_LIKE, variant="noncollinear")
    assert integral(t, "E+") == [True, True, True, True]
    t2 = table_with(section_as_divisor(table_with(), "s_o"))
    assert integral(t2, "s_o") == [False, False, True, True]
    assert integral(t, "O_like") == [True, True, True, True]


def test_bundled_table_refuses_unknown_variant():
    with pytest.raises(SchemaError) as exc:
        fourlines.bundled_table("skew")
    assert str(exc.value) == (
        "unknown variant 'skew'; expected one of ('collinear', 'noncollinear')"
    )


def test_resolve_torsion_goldens():
    der = derive(table_with(variant="noncollinear"), "E+", "s_o")
    assert is_zero(der.torsion_residual)
    assert der.point.torsion == (0, 0) and der.point.torsion_name is None
    # without D.s_o, derive resolves torsion at n = 2 and at n = -2 and they agree
    t = table_with(replace(eplus_profile("noncollinear"), d_dot_section={}))
    assert derive(t, "E+", "s_o").point == MWPoint(2, (0, 0))
    der_o = derive(table_with(O_LIKE), "O_like", "s_o")
    assert is_zero(der_o.torsion_residual) and der_o.point.torsion_is_zero()


def torsion_divisor(base, spec):
    """A torsion section's divisor profile; t_i.s_o = 0 is forced by
    <P_o, P_{t_i}> = 0."""
    prof = torsion_profile(base.cfg, spec)
    return replace(section_as_divisor(base, prof), d_dot_section={"s_o": 0})


def test_resolve_torsion_returns_table_entry():
    cfg = four_line_surface()
    base = table_with()
    for spec in cfg.torsion_table:
        t = table_with(torsion_divisor(base, spec))
        der = derive(t, spec.name, "s_o")
        assert der.free.n == 0
        assert der.point.torsion_name == spec.name
        assert der.point.torsion == spec.coords


def test_resolve_torsion_no_match():
    # the class (e1; 0,0,0) is not realized by any torsion section; D^2 = 0
    # gives n = 0, so torsion is the first check to fail
    bad = DivisorProfile("D", 1, 0, {"inf": (1, 0, 0, 0)}, d_squared=0)
    t = table_with(bad)
    with pytest.raises(InconsistentDataError, match=r"torsion.*\(1,0 \| 0 \| 0 \| 0\)"):
        derive(t, "D", "s_o")


def test_abel_jacobi_goldens():
    img = abel_jacobi_image(table_with(variant="noncollinear"), "E+", "s_o")
    assert img == MWPoint(2, (0, 0), None)
    assert str(img) == "2*P_o + 0"
    img0 = abel_jacobi_image(table_with(variant="collinear"), "E+", "s_o")
    assert img0 == MWPoint(0, (0, 0), None)
    assert str(img0) == "O"


def test_abel_jacobi_eminus():
    img = abel_jacobi_image(table_with(variant="noncollinear"), "E-", "s_o")
    assert img == MWPoint(-2, (0, 0), None)


def test_abel_jacobi_section_round_trips():
    cfg = four_line_surface()
    base = table_with()
    # the generator itself
    t = table_with(section_as_divisor(base, "s_o"))
    assert abel_jacobi_image(t, "s_o", "s_o") == MWPoint(1, (0, 0), None)
    # O
    t_o = table_with(O_LIKE)
    assert abel_jacobi_image(t_o, "O_like", "s_o") == MWPoint(0, (0, 0), None)
    # each torsion section
    for spec in cfg.torsion_table:
        tt = table_with(torsion_divisor(base, spec))
        img = abel_jacobi_image(tt, spec.name, "s_o")
        assert img == MWPoint(0, spec.coords, spec.name)
        assert str(img) == spec.name


def test_derivation_record_type2():
    der = derive(table_with(variant="noncollinear"), "E+", "s_o")
    assert der.free.height == Fraction(1, 2) and der.free.phi0_self == -2
    assert (der.free.n, der.free.n_squared, der.free.sign_determined) == (2, 4, True)
    assert is_zero(der.gamma_classes) and is_zero(der.torsion_residual)
    assert der.point.torsion_is_zero() and der.s_dot_o == 0
    assert der.point == abel_jacobi_image(table_with(variant="noncollinear"), "E+", "s_o")


BUNDLED = table_with()
TRIVIAL_LATTICE = [SYM_O, SYM_F] + [
    theta(fid, i) for fid, _ in BUNDLED.cfg.fibers for i in range(BUNDLED.fibers[fid].m)
]


@settings(max_examples=60, deadline=None)
@given(
    st.integers(-4, 4),
    st.lists(st.integers(-2, 2), min_size=len(TRIVIAL_LATTICE), max_size=len(TRIVIAL_LATTICE)),
)
def test_image_ignores_trivial_lattice_noise(k, noise):
    # D = k s_o + a O + b F + sum c Theta_{v,i} has P_D = k P_o by construction
    cls = k * FormalClass.of(section_sym("s_o"))
    for sym, c in zip(TRIVIAL_LATTICE, noise):
        cls = cls + c * FormalClass.of(sym)
    table = table_with(profile_from_class(BUNDLED, cls, "D"))
    der = derive(table, "D", "s_o")
    assert der.point == MWPoint(k, (0, 0))
    assert der.free.n_squared == k * k
    assert is_zero(der.torsion_residual)


def test_abel_jacobi_sign_undetermined_ok():
    # without D.s_o the sign is open, but exponent-2 torsion makes both agree
    t = table_with(replace(eplus_profile("noncollinear"), d_dot_section={}))
    der = derive(t, "E+", "s_o")
    assert der.point.free_coeff == 2 and der.point.torsion_is_zero()
    assert der.free.sign_route == "open" and not der.free.sign_determined


def test_abel_jacobi_rejects_non_square():
    bad = DivisorProfile(
        "E+", 3, 0, {"inf": (1, 1, 1, 0)}, d_squared=2, d_dot_section={"s_o": 0}
    )
    with pytest.raises(InconsistentDataError, match="not a perfect square"):
        abel_jacobi_image(table_with(bad), "E+", "s_o")


def test_torsion_table_search_oracle():
    """Exhaustive search re-derives the bundled torsion table.

    Height-zero sections other than O over this configuration must have
    s.O = 0, pass through one outer I0* component and exactly two of the
    three I2 non-identity components (9 candidates).  Exactly six of the
    9-choose-3 triples are closed under dual-class addition, and exactly
    two remain compatible with the generator's classes (the two differing
    by relabeling the symmetric outer components); the bundled table is one
    of them.
    """
    cfg = four_line_surface()
    i0 = fiber_data("I0*")
    i2 = fiber_data("I2")
    # local height terms (A_v^{-1})_kk from the adjugate, not the library
    local = []
    for _, kind in cfg.fibers:
        inv = inverse_adjugate(fiber_data(kind).a.num)
        local.append([inv[k][k] for k in range(len(inv))])

    candidates = []
    for comps in product(range(4), *(range(2),) * 3):
        if all(k == 0 for k in comps):
            continue
        contrib = sum(local[v][k - 1] for v, k in enumerate(comps) if k)
        for s_dot_o in range(3):
            if 2 * cfg.chi + 2 * s_dot_o + contrib == 0:
                candidates.append((comps, s_dot_o))
    assert len(candidates) == 9
    assert all(s == 0 for _, s in candidates)
    assert all(c[0] in (1, 2, 3) and sum(c[1:]) == 2 for c, _ in candidates)

    def classes(comps):
        return (
            dual_class_of(i0, comps[0]),
            (comps[1] % 2,),
            (comps[2] % 2,),
            (comps[3] % 2,),
        )

    def add(x, y):
        return (
            i0.group.add(x[0], y[0]),
            i2.group.add(x[1], y[1]),
            i2.group.add(x[2], y[2]),
            i2.group.add(x[3], y[3]),
        )

    zero = (i0.group.zero(), (0,), (0,), (0,))
    cand_classes = [classes(c) for c, _ in candidates]
    closed_triples = []
    for triple in product(cand_classes, repeat=3):
        a, b, c = triple
        if len({a, b, c}) != 3 or sorted(triple) != list(triple):
            continue
        table = {a, b, c, zero}
        if all(add(x, y) in table for x in table for y in table):
            closed_triples.append(triple)
    assert len(closed_triples) == 6

    gen_classes = (
        dual_class_of(i0, 1),
        (1,),
        (0,),
        (0,),
    )
    # compatibility: generator + torsion must again be a realizable section
    # shape (height 1/2 with integral s.O), i.e. its class must be either
    # (nonzero; exactly one I2) or (zero; all three I2)
    def realizable(cls):
        i0_part, i2_parts = cls[0], [c[0] for c in cls[1:]]
        if i0_part != i0.group.zero():
            return sum(i2_parts) == 1
        return sum(i2_parts) == 3

    compatible = [
        triple
        for triple in closed_triples
        if all(realizable(add(gen_classes, x)) for x in triple)
    ]
    assert len(compatible) == 2

    bundled = tuple(
        sorted(
            classes(
                (
                    spec.components.get("inf", 0),
                    spec.components.get("1", 0),
                    spec.components.get("2", 0),
                    spec.components.get("3", 0),
                )
            )
            for spec in cfg.torsion_table
        )
    )
    assert bundled in compatible


def test_shioda_tate():
    cfg = four_line_surface()
    assert cfg.ns_rank == 10  # 2 + (4 + 1 + 1 + 1) + 1
    assert replace(cfg, mw_free_rank=0).ns_rank == 9
    single = SurfaceConfig(1, (("v", cfg.fibers[0][1]),), (), 0)
    assert single.ns_rank == 6  # 2 + 4 + 0


def test_mwpoint_str():
    assert str(MWPoint(0, (1, 0), "t1")) == "t1"
    assert str(MWPoint(3, (1, 1), "t3")) == "3*P_o + t3"
    assert str(MWPoint(-2, (0, 0), None)) == "-2*P_o + 0"


def test_build_and_derive_read_no_qmatrix_entry(monkeypatch):
    # A^{-1} entries are read as integer numerators; QMatrix.__getitem__ and
    # QMatrix.rows build a Fraction on every read
    reads = []
    getitem, rows = QMatrix.__getitem__, QMatrix.rows

    def counting_getitem(self, ij):
        reads.append(ij)
        return getitem(self, ij)

    def counting_rows(self):
        reads.append("rows")
        return rows.fget(self)

    monkeypatch.setattr(QMatrix, "__getitem__", counting_getitem)
    monkeypatch.setattr(QMatrix, "rows", property(counting_rows))
    for name in ("fourlines_type1", "fourlines_type2"):
        doc = bundled_config(name)
        table = build_table(doc.surface, doc.divisors)
        for d in doc.divisors:
            derive(table, d.name, GENERATOR)
    assert reads == []


# Every field of the derivation record, recorded before the closed forms
# moved into mwgroup.  The checked-in configs: wide_i34_i29star.json is a
# chi = 9 surface with fibers I34 and I29* and a generator with s.O = 2, whose
# divisors D<k> are k s_o plus seeded trivial-lattice noise (k = -3..3);
# fourlines_torsion.json is the bundled surface with divisors k s_o + t_i
# plus noise, and T1_open has no registered D.s_o.  The wide gamma vectors
# are pinned by the sha256 of their rendered entries.
CONFIGS = Path(__file__).parent / "configs"
RECORD_GOLDENS = {
    ("wide_i34_i29star", "D-3"): (
        (-3, 9, True, "645/68", "-5805/68"),
        "6a80064d4463d1385bd46c06f6b913329c0f7ac430d83bb224cb9d9513d60692",
        ((15,), (1,)), ((0,), (0,)), 42, MWPoint(-3, (), None)),
    ("wide_i34_i29star", "D-2"): (
        (-2, 4, True, "645/68", "-645/17"),
        "b5490329e2bd2906d8b21619e888cc31609cfc23153000ffee1a002808fbea16",
        ((10,), (2,)), ((0,), (0,)), 14, MWPoint(-2, (), None)),
    ("wide_i34_i29star", "D-1"): (
        (-1, 1, True, "645/68", "-645/68"),
        "8b60cdf48d6f3f71f5872ef5c526daa0e720a8c3b47ef4767a45f67feab16e5c",
        ((5,), (3,)), ((0,), (0,)), 2, MWPoint(-1, (), None)),
    ("wide_i34_i29star", "D0"): (
        (0, 0, True, "645/68", "0"),
        "980a8fe284c7a33b185c5e58e4782765cc4006154f2be03765d5c642e065526a",
        ((0,), (0,)), ((0,), (0,)), -9, MWPoint(0, (), None)),
    ("wide_i34_i29star", "D1"): (
        (1, 1, True, "645/68", "-645/68"),
        "30526bd47350a7656ebe5e09d973fe89a678f3adce055aeb4d58b78260e8a82a",
        ((29,), (1,)), ((0,), (0,)), 2, MWPoint(1, (), None)),
    ("wide_i34_i29star", "D2"): (
        (2, 4, True, "645/68", "-645/17"),
        "f0367ca99da9385eb1949c5636d7701816c77786d50d0aec21bf72e08a9308e3",
        ((24,), (2,)), ((0,), (0,)), 14, MWPoint(2, (), None)),
    ("wide_i34_i29star", "D3"): (
        (3, 9, True, "645/68", "-5805/68"),
        "856fb0d860fe8521a3aac394870e3ff84f74239ea8f83a2dc783a3aa1f6455db",
        ((19,), (3,)), ((0,), (0,)), 42, MWPoint(3, (), None)),
    ("fourlines_torsion", "T1"): (
        (1, 1, True, "1/2", "-1/2"),
        (("2", "2", "1", "2"), ("3/2",), ("5/2",), ("1/2",)),
        ((0, 0), (1,), (1,), (1,)), ((1, 0), (0,), (1,), (1,)), 0, MWPoint(1, (1, 0), "t1")),
    ("fourlines_torsion", "T2"): (
        (0, 0, True, "1/2", "0"),
        (("3/2", "2", "-1/2", "-2"), ("3/2",), ("0",), ("-3/2",)),
        ((0, 1), (1,), (0,), (1,)), ((0, 1), (1,), (0,), (1,)), 0, MWPoint(0, (0, 1), "t2")),
    ("fourlines_torsion", "T3"): (
        (-2, 4, True, "1/2", "-2"),
        (("-5/2", "3/2", "-1", "-1"), ("5/2",), ("3/2",), ("-2",)),
        ((1, 1), (1,), (1,), (0,)), ((1, 1), (1,), (1,), (0,)), 1, MWPoint(-2, (1, 1), "t3")),
    ("fourlines_torsion", "T1b"): (
        (3, 9, True, "1/2", "-9/2"),
        (("5", "4", "1", "4"), ("3/2",), ("-3/2",), ("-1/2",)),
        ((0, 0), (1,), (1,), (1,)), ((1, 0), (0,), (1,), (1,)), 2, MWPoint(3, (1, 0), "t1")),
    ("fourlines_torsion", "T1_open"): (
        (1, 1, False, "1/2", "-1/2"),
        (("1", "0", "-1", "4"), ("-1/2",), ("5/2",), ("3/2",)),
        ((0, 0), (1,), (1,), (1,)), ((1, 0), (0,), (1,), (1,)), 0, MWPoint(1, (1, 0), "t1")),
}


@cache
def config_table(name):
    doc = load_config(CONFIGS / f"{name}.json")
    return build_table(doc.surface, doc.divisors)


@pytest.mark.parametrize("config, divisor", sorted(RECORD_GOLDENS))
def test_derivation_record_goldens(config, divisor):
    der = derive(config_table(config), divisor, "s_o")
    free, vectors = der.free, tuple(tuple(map(str, v)) for v in der.gamma_vectors)
    if config == "wide_i34_i29star":
        vectors = hashlib.sha256(repr(vectors).encode()).hexdigest()
    got = (
        (free.n, free.n_squared, free.sign_determined, str(free.height), str(free.phi0_self)),
        vectors, der.gamma_classes, der.torsion_residual, der.s_dot_o, der.point,
    )
    assert got == RECORD_GOLDENS[config, divisor]


# The sign of n without a registered D.s_o: a sign whose residual class names
# no torsion section is excluded.


def test_torsion_fixes_the_sign_of_the_wide_divisors():
    # trivial torsion and component groups Z/34 x Z/4: only one sign of
    # each n != 0 leaves a zero residual, so dropping D.s_o changes nothing
    # in the record but the sign route
    doc = load_config(CONFIGS / "wide_i34_i29star.json")
    open_table = build_table(doc.surface, [replace(d, d_dot_section={}) for d in doc.divisors])
    for k in (-3, -2, -1, 1, 2, 3):
        paired = derive(config_table("wide_i34_i29star"), f"D{k}", "s_o")
        der = derive(open_table, f"D{k}", "s_o")
        assert der.point == paired.point == MWPoint(k, (), None)
        assert der.free.sign_route == "torsion" and paired.free.sign_route == "pairing"
        assert der == replace(paired, free=replace(paired.free, sign_route="torsion"))


def test_torsion_fixes_the_sign_on_one_i3_fiber():
    # P1 = s_o + 2 O + 2 Theta_2 and M2 = -2 s_o + F - 2 O - Theta_1 - 2 Theta_2,
    # neither with D.s_o; in Z/3 the residual at the wrong sign is 2 n class(s_o)
    table = config_table("i3_sign_by_torsion")
    for name, n in (("P1", 1), ("M2", -2)):
        der = derive(table, name, "s_o")
        assert (der.free.n, der.free.sign_route, der.point) == (n, "torsion", MWPoint(n, (), None))
        assert der.torsion_residual == ((0,),)


def test_open_sign_that_torsion_cannot_split_is_refused():
    # two I4 fibers, s_o through Theta_1 of both and a 2-torsion t through
    # Theta_2 of both: class(t) = 2 class(s_o), so P_o and -P_o + t agree on
    # every intersection number but D.s_o, and both signs name a torsion
    # element.  build_table accepts the surface (s_o.t = 0 is integral).
    i4 = FiberKind.parse("I4")
    cfg = SurfaceConfig(
        chi=1, fibers=(("a", i4), ("b", i4)),
        sections=(SectionProfile("s_o", 0, {"a": 1, "b": 1}),), mw_free_rank=1,
        torsion_group=AbelianGroup((2,)),
        torsion_table=(TorsionSectionSpec("t", {"a": 2, "b": 2}, (1,)),),
    )
    s_o = section_as_divisor(build_table(cfg), "s_o", "D")
    table = build_table(cfg, [s_o, replace(s_o, name="open", d_dot_section={})])
    assert derive(table, "D", "s_o").point == MWPoint(1, (0,), None)
    with pytest.raises(InconsistentDataError, match="sign of n = 1 is undetermined.*depends on it"):
        derive(table, "open", "s_o")


@pytest.mark.parametrize("d_dot_section", [{"s_o": 0}, {}], ids=["pairing", "open"])
def test_torsion_miss_is_refused_on_both_sign_routes(d_dot_section):
    # E+ moved by Theta_1 of fibers "2" and "3", with D^2 lowered by 1 so
    # that n^2 stays 4: the residual (0,0 | 0 | 1 | 1) names no torsion
    # section, at n = 2 and, since 2 class(s_o) is zero, at n = -2 too
    eplus = eplus_profile("noncollinear")
    bad = replace(eplus, d_squared=eplus.d_squared - 1, c={**eplus.c, "2": (1,), "3": (1,)},
                  d_dot_section=d_dot_section)
    with pytest.raises(InconsistentDataError, match=r"^no torsion section realizes the dual"
                       r" class \(0,0 \| 0 \| 1 \| 1\);"):
        derive(table_with(bad), "E+", "s_o")


def test_bookkeeping_rejects_an_impossible_multiple():
    # chi = 2, seven I2 fibers, s_o with s.O = 0 through Theta_1 of each
    # (height 1/2): D1 = s_o derives, but D2 = 2 s_o would need s(D).O = -1
    table = config_table("bookkeeping_seven_i2")
    der = derive(table, "D1", "s_o")
    assert str(der.point) == "1*P_o + 0" and der.s_dot_o == 0
    with pytest.raises(InconsistentDataError, match=r"height identity gives s\(D\)\.O = -1,"):
        derive(table, "D2", "s_o")


# surfaces with torsion, and every generator (components, s.O <= 2) that
# build_table accepts with positive height
def _torsion_surfaces():
    i3, i4 = FiberKind.parse("I3"), FiberKind.parse("I4")
    yield four_line_surface()
    yield SurfaceConfig(1, (("a", i4), ("b", i4)), (), 1, AbelianGroup((2,)),
                        (TorsionSectionSpec("t", {"a": 2, "b": 2}, (1,)),))
    yield SurfaceConfig(1, (("a", i3), ("b", i3), ("c", i3)), (), 1, AbelianGroup((3,)), (
        TorsionSectionSpec("t1", {"a": 1, "b": 1, "c": 1}, (1,)),
        TorsionSectionSpec("t2", {"a": 2, "b": 2, "c": 2}, (2,)),
    ))


def _generators(cfg):
    fids = [fid for fid, _ in cfg.fibers]
    simple = [(0,) + fiber_data(kind).simple for _, kind in cfg.fibers]
    for comps, s_dot_o in product(product(*simple), range(3)):
        gen = SectionProfile("s_o", s_dot_o, dict(zip(fids, comps)))
        try:
            table = build_table(replace(cfg, sections=(gen,)))
        except InconsistentDataError:
            continue  # a pairing with a torsion section is not an integer
        if section_height(cfg.chi, dict(cfg.fibers), s_dot_o, gen.components) > 0:
            yield table.cfg


TORSION_TABLES = [cfg for surface in _torsion_surfaces() for cfg in _generators(surface)]


@st.composite
def torsion_divisors(draw):
    """A table with torsion and generator s, and a divisor whose class is
    n class(s) + class(t) for a drawn torsion entry t (or t = 0): c(v, D) is
    n e_{k_s} + e_{k_t} + A_v w_v for drawn w_v, d and D.O are drawn, and
    <P_D, P_D> = n^2 <P_o, P_o> and <P_D, P_o> = n <P_o, P_o> fix D^2 and
    D.s_o through the phi0 closed forms."""
    cfg = draw(st.sampled_from(TORSION_TABLES))
    gen = cfg.sections[0]
    t = draw(st.sampled_from((None,) + cfg.torsion_table))
    n, d, d_dot_o = draw(st.integers(-3, 3)), draw(st.integers(-2, 2)), draw(st.integers(-2, 2))
    h = section_height(cfg.chi, dict(cfg.fibers), gen.s_dot_o, gen.components)
    d_sq = -n * n * h + 2 * d * d_dot_o + d * d * cfg.chi
    d_dot_s = -n * h + d * gen.s_dot_o + d * cfg.chi + d_dot_o
    c = {}
    for fid, kind in cfg.fibers:
        a = fiber_data(kind).a.num
        w = draw(st.lists(st.integers(-2, 2), min_size=len(a), max_size=len(a)))
        vec = [sum(x * y for x, y in zip(row, w)) for row in a]
        for coeff, section in ((n, gen), (1, t)):
            k = section.components.get(fid, 0) if section else 0
            if k:
                vec[k - 1] += coeff
        x = [sum(y * z for y, z in zip(row, vec)) for row in inverse_adjugate(a)]
        d_sq += sum(y * z for y, z in zip(vec, x))
        k = gen.components.get(fid, 0)
        d_dot_s += x[k - 1] if k else 0
        c[fid] = tuple(vec)
    # both are integers because the table accepted s next to every torsion entry
    assert d_sq.denominator == 1 and d_dot_s.denominator == 1
    registered = {"s_o": int(d_dot_s)} if draw(st.booleans()) else {}
    return cfg, n, t, DivisorProfile("D", d, d_dot_o, c, int(d_sq), registered)


@settings(max_examples=150, deadline=None)
@given(torsion_divisors())
def test_bookkeeping_s_dot_o_is_an_integer_on_tables_with_torsion(case):
    cfg, n, t, profile = case
    assert {c.torsion_group.order for c in TORSION_TABLES} == {2, 3, 4}
    try:
        der = derive(build_table(cfg, [profile]), "D", "s_o")
    except InconsistentDataError as exc:
        # an impossible multiple of the generator, or an open sign that
        # torsion splits two ways; never a non-integral s(D).O
        assert "which no section attains" in str(exc) or "depends on it" in str(exc)
        return
    assert type(der.s_dot_o) is int
    coords = t.coords if t else (0,) * len(cfg.torsion_group.invariant_factors)
    if profile.d_dot_section:
        assert der.point == MWPoint(n, cfg.torsion_group.reduce(coords), t and t.name)
    else:
        assert abs(der.point.free_coeff) == abs(n)
