"""Top-level acceptance battery.

One test per shipped guarantee, so ``pytest -v`` prints exactly one
pass/fail line for each.  Every comparison is exact: the arithmetic is
rational throughout, so there are no tolerances anywhere.
"""

import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest

from ajimage import (
    GENERATOR,
    AbelianGroup,
    DivisorProfile,
    InconsistentDataError,
    FormalClass,
    MWPoint,
    QMatrix,
    RelationStatus,
    abel_jacobi_image,
    build_table,
    classify_type,
    d2n_cover_exists,
    derive,
    eminus_profile,
    eplus_profile,
    fiber_data,
    four_line_surface,
    image_of,
    ns_relation,
    param_of_u,
    param_point,
    u_of,
    verify_ns_relation,
)
from ajimage import mwgroup, nslattice
from ajimage.kodaira import dual_class_of, incidence_class
from ajimage.nslattice import SYM_F, SYM_O, theta

from oracles import (
    DATA,
    abelian_order_multiset,
    coset_orders,
    det_cofactor,
    drawn_arrangement,
    phi0,
)

ALL_KINDS = (
    ["I2", "I3", "I4", "I5", "I6", "I7"]
    + ["I0*", "I1*", "I2*", "I3*", "I4*"]
    + ["III", "IV", "III*", "IV*", "II*"]
)


def test_star_fiber_intersection_matrices_entrywise():
    data = fiber_data("I0*")
    h = Fraction(-1, 2)
    a = QMatrix([[-2, 0, 0, 1], [0, -2, 0, 1], [0, 0, -2, 1], [1, 1, 1, -2]])
    a_inv = QMatrix([[-1, h, h, -1], [h, -1, h, -1], [h, h, -1, -1], [-1, -1, -1, -2]])
    for i in range(4):
        for j in range(4):
            assert data.a[i, j] == a[i, j], (i, j)
            assert data.a_inv[i, j] == a_inv[i, j], (i, j)
    assert data.multiplicities == (1, 1, 1, 1, 2)


def test_component_groups_and_dual_classes():
    i0star = fiber_data("I0*")
    g = i0star.group
    assert g == AbelianGroup((2, 2))
    e1, e2, e3 = (dual_class_of(i0star, i) for i in (1, 2, 3))
    assert len({e1, e2, e3}) == 3
    assert all(c != g.zero() for c in (e1, e2, e3))
    assert g.add(e1, e2) == e3 and g.add(e2, e3) == e1 and g.add(e1, e3) == e2
    # the library's group (built by Smith reduction) against a brute-force
    # coset-enumeration oracle, on every cataloged kind
    for kind in ALL_KINDS:
        data = fiber_data(kind)
        gram = [[-int(x) for x in row] for row in data.a.rows]
        assert coset_orders(gram) == abelian_order_multiset(
            data.group.invariant_factors
        ), kind


def test_splitting_curve_decomposition_both_variants():
    cfg = four_line_surface()
    sharp = build_table(cfg, [eplus_profile("noncollinear")])  # (E+)^2 = 1
    der = derive(sharp, "E+", GENERATOR)
    assert (der.n_squared, der.point.free_coeff, der.sign_determined) == (4, 2, True)
    point = abel_jacobi_image(sharp, "E+", GENERATOR)
    assert point == MWPoint(2, (0, 0)) and point.torsion_is_zero()
    flat = build_table(cfg, [eplus_profile("collinear")])  # (E+)^2 = 3
    assert derive(flat, "E+", GENERATOR).point.free_coeff == 0
    assert abel_jacobi_image(flat, "E+", GENERATOR) == MWPoint(0, (0, 0))


def test_generator_height_is_one_half():
    table = build_table(four_line_surface(), [eplus_profile("noncollinear")])
    assert derive(table, "E+", GENERATOR).height == Fraction(1, 2)


def test_divisor_class_relations_verify():
    for variant in ("collinear", "noncollinear"):
        table = build_table(
            four_line_surface(), [eplus_profile(variant), eminus_profile(variant)]
        )
        lhs, rhs = ns_relation(variant)
        verdict = verify_ns_relation(table, lhs, rhs)
        assert verdict.status is RelationStatus.HOLDS, (variant, verdict.detail)
        if variant == "collinear":
            assert table.pair_class(lhs, lhs) == 3
            assert table.pair_class(rhs, rhs) == 3


def test_dihedral_cover_decision_table():
    for n in range(3, 51):
        assert d2n_cover_exists("I", n).exists is True, n
    assert [n for n in range(3, 51) if d2n_cover_exists("II", n).exists] == [4]


def test_arrangement_pipeline_and_collinearity_oracle():
    rng = random.Random(20260814)

    def draw_param():
        if rng.random() < 0.2:
            return None  # the inflection point at infinity, u = 1
        t = Fraction(rng.randint(-40, 40), rng.randint(1, 15))
        return t if t not in (1, -1) else draw_param()

    def draw():
        # s1 and s2 may not be the inflection (None): redraw such a pair
        while True:
            s1, s2 = draw_param(), draw_param()
            if s1 is not None and s2 is not None:
                return s1, s2

    for produced in range(100):
        sign = 1 if produced % 2 == 0 else -1
        arr = drawn_arrangement(draw, sign)
        det = det_cofactor([p.coords for p in arr.q_points])
        if sign == 1:
            assert det == 0 and classify_type(arr).value == "I"
            assert image_of(arr) == MWPoint(0, (0, 0))
        else:
            assert det != 0 and classify_type(arr).value == "II"
            assert image_of(arr) == MWPoint(2, (0, 0))

    # group-coordinate collinearity (product of u-values equal to 1) against
    # the raw determinant, on 500 random triples, half of them forced collinear
    checked = 0
    while checked < 500:
        t1, t2 = draw_param(), draw_param()
        if rng.random() < 0.5 and t1 is not None and t2 is not None:
            t3 = param_of_u(1 / (u_of(t1) * u_of(t2)))
        else:
            t3 = draw_param()
        if len({t1, t2, t3}) < 3:
            continue
        pts = [param_point(t) for t in (t1, t2, t3)]
        det_zero = det_cofactor([p.coords for p in pts]) == 0
        assert (u_of(t1) * u_of(t2) * u_of(t3) == 1) == det_zero, (t1, t2, t3)
        checked += 1


def test_structural_properties_on_random_profiles():
    rng = random.Random(77)
    cfg = four_line_surface()
    pairing_syms = [SYM_O, SYM_F] + [
        theta(fid, i) for fid, kind in cfg.fibers for i in range(1, fiber_data(kind).m)
    ]

    def random_c():
        return {
            "inf": tuple(rng.randint(-2, 3) for _ in range(4)),
            "1": (rng.randint(-2, 3),),
            "2": (rng.randint(-2, 3),),
            "3": (rng.randint(-2, 3),),
        }

    for _ in range(40):
        prof = DivisorProfile(
            "D", rng.randint(0, 4), rng.randint(0, 3), random_c(),
            d_squared=rng.randint(-8, 8),
        )
        table = build_table(cfg, [prof])
        cls = phi0(table, "D")
        for sym in pairing_syms:
            assert table.pair_class(cls, FormalClass.of(sym)) == 0, sym
        # the closed-form self-pairing equals the formal expansion
        d = table.divisors["D"]
        closed_form = nslattice._phi0_pairing(table.cfg.chi, table.fibers, d, d, d.d_squared)
        assert closed_form == table.pair_class(cls, cls)

    # the class of the gamma vector is additive in c, fiber by fiber
    for _ in range(20):
        c1, c2 = random_c(), random_c()
        for fid, kind in cfg.fibers:
            data = fiber_data(kind)
            csum = tuple(a + b for a, b in zip(c1[fid], c2[fid]))
            assert incidence_class(data, csum) == data.group.add(
                incidence_class(data, c1[fid]), incidence_class(data, c2[fid])
            )

    assert cfg.ns_rank == 10
    assert 2 + sum(fiber_data(kind).m - 1 for _, kind in cfg.fibers) == 9
    assert cfg.mw_free_rank == 1  # 10 = 2 + 7 + 1


def test_impossible_self_intersection_is_rejected():
    # with E+.s_o registered, build_table refuses E+^2 = 2 itself
    bad = replace(eplus_profile("collinear"), d_squared=2, d_dot_section={})
    table = build_table(four_line_surface(), [bad])
    with pytest.raises(InconsistentDataError, match="not a perfect square"):
        derive(table, "E+", GENERATOR)
    with pytest.raises(InconsistentDataError, match="not a perfect square"):
        abel_jacobi_image(table, "E+", GENERATOR)


def test_bundled_tables_built_once_per_shape(monkeypatch, capsys):
    # every cover decision, arrangement image, class relation, demo check and
    # bundled image request reads one table per splitting shape; the demo
    # guardrail's broken profile is the only other table on the bundled
    # surface.  Each bundled divisor is derived once on its shape's table;
    # `image --bundled` derives on every call, like `image --config`.
    from ajimage import cli, dihedral, fourlines

    caches = (fourlines.bundled_table, fourlines.bundled_derivation, fourlines.ns_relation,
              dihedral._cover_points)
    built, derived = [], Counter()

    class CountingTable(nslattice.IntersectionTable):
        def __init__(self, cfg, fibers, sections, divisors, torsion):
            if cfg == four_line_surface():
                built.append(tuple((d.name, d.d_squared) for d in divisors.values()))
            super().__init__(cfg, fibers, sections, divisors, torsion)

    derive = mwgroup.derive

    def counting(table, divisor, generator):
        derived[table, divisor] += 1
        return derive(table, divisor, generator)

    monkeypatch.setattr(nslattice, "IntersectionTable", CountingTable)
    # every module that binds derive calls the counting one
    for module in list(sys.modules.values()):
        if module.__name__.split(".")[0] == "ajimage" and getattr(module, "derive", None) is derive:
            monkeypatch.setattr(module, "derive", counting)
    for cache in caches:
        cache.cache_clear()
    try:
        rng = random.Random(17)
        for sign in (1, -1) * 20:
            arr = drawn_arrangement(
                lambda: tuple(Fraction(rng.randint(-30, 30), rng.randint(1, 9)) for _ in "12"),
                sign,
            )
            assert image_of(arr) == MWPoint(0 if sign == 1 else 2, (0, 0))
        for atype in ("I", "II"):
            for n in range(3, 51):
                d2n_cover_exists(atype, n)
        for variant in fourlines.VARIANTS:
            assert verify_ns_relation(fourlines.bundled_table(variant), *ns_relation(variant))
        assert cli.main(["demo"]) == 0
        shapes = {fourlines.bundled_table(v): v for v in fourlines.VARIANTS}

        def bundled_derivations():
            return {(shapes[t], d): k for (t, d), k in derived.items() if t in shapes}

        once = {(v, d): 1 for v in fourlines.VARIANTS for d in ("E+", "E-")}
        assert bundled_derivations() == once
        for bundle in ("type1", "type2"):
            for divisor in ("E+", "E-"):
                assert cli.main(["image", "--bundled", bundle, "--divisor", divisor]) == 0
        assert bundled_derivations() == {key: 2 for key in once}
    finally:
        for cache in caches:
            cache.cache_clear()
    capsys.readouterr()
    assert sorted(built) == [(("E+", 1), ("E-", 1)), (("E+", 2),), (("E+", 3), ("E-", 3))]


def test_readme_library_use_block_prints_its_comments(capsys):
    # the README's "Library use" block runs as written, and each print
    # outputs exactly the comment on its line
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library use\n", 1)[1]
    block = section.split("```python\n", 1)[1].split("```", 1)[0]
    prints = [line for line in block.splitlines() if line.startswith("print(")]
    assert len(prints) == 5 and all("  # " in line for line in prints)
    exec(compile(block, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.splitlines() == [line.split("  # ", 1)[1] for line in prints]


def test_readme_configuration_snippet_prints_the_shipped_document(tmp_path):
    # the README's "Configuration files" command runs as written, from outside
    # the checkout, and prints the shipped document byte for byte
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration files\n", 1)[1].split("\n## ", 1)[0]
    snippet = section.split("```sh\n", 1)[1].split("```", 1)[0]
    src = str(DATA.parents[1])
    env = dict(os.environ, PATH=os.pathsep.join([str(Path(sys.executable).parent),
                                                 os.environ.get("PATH", "")]),
               PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    run = subprocess.run(["sh", "-c", snippet], capture_output=True, cwd=tmp_path, env=env,
                         timeout=60)
    assert (run.returncode, run.stderr) == (0, b"")
    assert run.stdout == (DATA / "fourlines_type2.json").read_bytes()
