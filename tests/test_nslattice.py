import random
import time
from dataclasses import replace
from fractions import Fraction
from itertools import product
from math import floor
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ajimage import nslattice
from ajimage.configio import BUNDLED, bundled_config
from ajimage.errors import InconsistentDataError, MissingIntersectionError, SchemaError
from ajimage.exact import smith_normal_form
from ajimage.fourlines import eminus_profile, eplus_profile, four_line_surface
from ajimage.kodaira import AbelianGroup, FiberKind, dual_class_of, fiber_data
from ajimage.mwgroup import derive
from ajimage.nslattice import (
    DivisorProfile,
    FormalClass,
    SectionProfile,
    SurfaceConfig,
    SYM_F,
    SYM_O,
    TorsionSectionSpec,
    build_table,
    divisor_sym,
    section_sym,
    theta,
)

from oracles import (
    contribution,
    inverse_adjugate,
    multiple_s_dot_o,
    pair,
    pair_class_reference,
    pair_reference,
    phi0,
    profile_from_class,
    section_as_divisor,
    section_height,
    torsion_closed_reference,
    torsion_profile,
)


def table_with(*divisors, variant=None):
    cfg = four_line_surface()
    divs = list(divisors)
    if variant is not None:
        divs = [eplus_profile(variant), eminus_profile(variant)] + divs
    return build_table(cfg, divs)


# ordinary divisors with the numbers of O and F (no divisor may be named O or F)
O_LIKE = DivisorProfile("O_like", d=1, d_dot_o=-1, c={}, d_squared=-1)
F_LIKE = DivisorProfile("F_like", d=0, d_dot_o=1, c={}, d_squared=0)


def phi0_self(table, name):
    """phi0(D).phi0(D) of a registered divisor through the one closed form,
    which derive reads for n^2."""
    d = table.divisors[name]
    return nslattice._phi0_pairing(table.cfg.chi, table.fibers, d, d, d.d_squared)


def phi0_cross(table, name, section):
    """phi0(D).phi0(s) through the one closed form, which
    test_phi0_pairing_on_drawn_surfaces checks against oracles.phi0."""
    d = table.divisors[name]
    return nslattice._phi0_pairing(table.cfg.chi, table.fibers, d, table.sections[section],
                                   d.d_dot_section[section])


# --- table construction and base pairings ---


def test_base_pairings():
    t = table_with()
    assert pair(t, SYM_O, SYM_O) == -1
    assert pair(t, SYM_O, SYM_F) == 1
    assert pair(t, SYM_F, SYM_F) == 0
    assert pair(t, theta("inf", 1), theta("inf", 1)) == -2
    assert pair(t, theta("inf", 1), theta("inf", 4)) == 1
    assert pair(t, theta("inf", 1), theta("inf", 2)) == 0
    assert pair(t, theta("inf", 1), theta("1", 1)) == 0
    assert pair(t, SYM_O, theta("inf", 1)) == 0
    assert pair(t, SYM_O, theta("inf", 0)) == 1
    assert pair(t, SYM_F, theta("inf", 2)) == 0
    with pytest.raises(KeyError) as exc:
        pair(t, theta("nope", 1), SYM_O)
    assert exc.value.args == ("Theta[nope,1] is not a symbol of this table",)


def test_derived_identity_component_rows():
    t = table_with()
    # Theta_0 rows follow from the fiber relation
    assert pair(t, theta("inf", 0), theta("inf", 0)) == -2
    assert pair(t, theta("inf", 0), theta("inf", 4)) == 1
    assert pair(t, theta("inf", 0), theta("inf", 1)) == 0
    assert pair(t, theta("1", 0), theta("1", 1)) == 2
    assert pair(t, theta("1", 0), theta("2", 0)) == 0
    assert pair(t, SYM_F, theta("1", 0)) == 0


def test_section_rows():
    t = table_with()
    s = section_sym("s_o")
    assert pair(t, s, SYM_O) == 0
    assert pair(t, s, SYM_F) == 1
    assert pair(t, s, s) == -1
    assert pair(t, s, theta("inf", 1)) == 1
    assert pair(t, s, theta("inf", 2)) == 0
    assert pair(t, s, theta("inf", 0)) == 0
    assert pair(t, s, theta("1", 1)) == 1
    assert pair(t, s, theta("2", 1)) == 0
    assert pair(t, s, theta("2", 0)) == 1


def test_divisor_rows():
    t = table_with(variant="noncollinear")
    ep = divisor_sym("E+")
    assert pair(t, ep, SYM_O) == 0
    assert pair(t, ep, SYM_F) == 3
    assert pair(t, ep, theta("inf", 1)) == 1
    assert pair(t, ep, theta("inf", 4)) == 0
    assert pair(t, ep, theta("inf", 0)) == 0  # 3 - (1+1+1+0 weighted) = 0
    assert pair(t, ep, theta("1", 1)) == 0
    assert pair(t, ep, theta("1", 0)) == 3
    assert pair(t, ep, section_sym("s_o")) == 0
    assert pair(t, ep, ep) == 1
    assert pair(t, ep, divisor_sym("E-")) == 5
    assert pair(t, divisor_sym("E-"), section_sym("s_o")) == 2


def test_missing_pairings_raise():
    t = table_with(DivisorProfile("D", d=2, d_dot_o=0, c={}))
    d = divisor_sym("D")
    with pytest.raises(MissingIntersectionError):
        pair(t, d, d)
    with pytest.raises(MissingIntersectionError):
        pair(t, d, section_sym("s_o"))


def test_divisor_pairings_must_be_symmetric():
    cfg = four_line_surface()
    plus = replace(eplus_profile("noncollinear"), d_dot_divisor={"E-": 7})
    minus = eminus_profile("noncollinear")  # registers E-.E+ = 5
    with pytest.raises(InconsistentDataError, match="'E-' and 'E\\+' register different pairings 5 and 7"):
        build_table(cfg, [plus, minus])
    # a value given once, or equal on both sides, is accepted and read both
    # ways; the phi0 pairing forces 5 here, and refuses a lone 7
    plus = replace(plus, d_dot_divisor={"E-": 5})
    t = build_table(cfg, [plus, replace(minus, d_dot_divisor={})])
    assert pair(t, divisor_sym("E+"), divisor_sym("E-")) == 5
    assert pair(t, divisor_sym("E-"), divisor_sym("E+")) == 5
    build_table(cfg, [plus, replace(minus, d_dot_divisor={"E+": 5})])


def test_validation_errors():
    cfg = four_line_surface()
    with pytest.raises(SchemaError):
        build_table(cfg, [DivisorProfile("D", 1, 0, {"nope": (1,)})])
    with pytest.raises(SchemaError):
        build_table(cfg, [DivisorProfile("D", 1, 0, {"inf": (1, 1)})])
    with pytest.raises(SchemaError):  # sections cannot meet the multiplicity-2 component
        build_table(
            SurfaceConfig(
                1, (("inf", FiberKind.parse("I0*")),), (SectionProfile("s", 0, {"inf": 4}),), 0
            )
        )
    with pytest.raises(InconsistentDataError):  # Euler budget 12*chi
        build_table(
            SurfaceConfig(1, (("a", FiberKind.parse("I0*")), ("b", FiberKind.parse("II*")),), (), 0)
        )
    # O and F name the zero section and the fiber class only, whatever the data
    for prof in (O_LIKE, F_LIKE, DivisorProfile("D", 1, 0, {}, 5)):
        for name in ("O", "F"):
            with pytest.raises(SchemaError, match=f"divisor name '{name}' is reserved"):
                build_table(cfg, [replace(prof, name=name)])


def _torsion_entries(cfg, **changes):
    """The bundled torsion table with the named entries replaced by
    (components, coords)."""
    return replace(cfg, torsion_table=tuple(
        TorsionSectionSpec(t.name, *changes[t.name]) if t.name in changes else t
        for t in cfg.torsion_table
    ))


def _renamed_torsion(cfg, *names):
    """The bundled torsion table with its entries renamed, in order."""
    return replace(cfg, torsion_table=tuple(
        replace(t, name=name) for t, name in zip(cfg.torsion_table, names)))


def _unlisted_torsion_section(rank):
    """<P, P> = 2 + 0 - 1 - 1 = 0, so s is torsion of class (2 | 2), which
    the trivial torsion table does not list; this once built with heights
    {"s": 0}."""
    i4 = FiberKind("I", 4)
    return SurfaceConfig(1, (("a", i4), ("b", i4)),
                         (SectionProfile("s", 0, {"a": 2, "b": 2}),), rank)


UNLISTED_TORSION = ("section 's' has height 0, so it is torsion, but its dual classes name"
                    " no element of the torsion table")


def _d_dot_t1(value):
    """Free rank 0 with t1 as the one section, and D = O + F (d = 1, D.O = 0,
    D^2 = 1) registering D.t1: t1 has height 0, so phi0(D).phi0(t1) = 0 forces
    D.t1 = t1.O + 1 = 1."""
    cfg = four_line_surface()
    return (replace(cfg, sections=(torsion_profile(cfg, cfg.torsion_table[0]),), mw_free_rank=0),
            [DivisorProfile("D", 1, 0, {}, d_squared=1, d_dot_section={"t1": value})])


T1 = four_line_surface().torsion_table[0]
REJECTIONS = [
    pytest.param(lambda cfg: (replace(cfg, chi=0), ()),
                 SchemaError, "chi must be positive", id="chi-zero"),
    # a negative rank would lower the Shioda-Tate rank past the rank bound:
    # this I10 surface exceeds it at rank 0, and at rank -2 ns_rank reads 9
    pytest.param(lambda cfg: (SurfaceConfig(1, (("a", FiberKind("I", 10)),), (), -2), ()),
                 SchemaError, "mw_free_rank must be >= 0, got -2", id="negative-free-rank"),
    pytest.param(lambda cfg: (replace(cfg, fibers=cfg.fibers + cfg.fibers[1:2]), ()),
                 SchemaError, "duplicate fiber id '1'", id="duplicate-fiber-id"),
    pytest.param(lambda cfg: (replace(cfg, sections=(SectionProfile("O", 0, {}),)), ()),
                 SchemaError, "section name 'O' is reserved", id="section-named-O"),
    pytest.param(lambda cfg: (replace(cfg, sections=(SectionProfile("F", 0, {}),)), ()),
                 SchemaError, "section name 'F' is reserved", id="section-named-F"),
    pytest.param(lambda cfg: (replace(cfg, sections=(SectionProfile("s", 0, {"nope": 1}),)), ()),
                 SchemaError, "section 's': unknown fiber id 'nope'", id="section-unknown-fiber"),
    pytest.param(lambda cfg: (replace(cfg, sections=(SectionProfile("s", 0, {"1": 2}),)), ()),
                 SchemaError, "section 's': component 2 out of range for fiber '1'",
                 id="section-component-range"),
    pytest.param(lambda cfg: (_torsion_entries(cfg, t1=({"1": 2}, T1.coords)), ()),
                 SchemaError, "torsion section 't1': component 2 out of range for fiber '1'",
                 id="torsion-component-range"),
    pytest.param(lambda cfg: (replace(cfg, sections=(replace(cfg.sections[0], s_dot_o=-1),)), ()),
                 SchemaError, "section 's_o': s.O must be >= 0", id="section-negative-s-dot-o"),
    pytest.param(lambda cfg: (replace(cfg, sections=cfg.sections * 2), ()),
                 SchemaError, "duplicate section name 's_o'", id="duplicate-section-name"),
    pytest.param(lambda cfg: (cfg, [replace(eplus_profile("collinear"),
                                            d_dot_section={"nope": 0})]),
                 SchemaError, "divisor 'E+': unknown section 'nope'", id="divisor-unknown-section"),
    pytest.param(lambda cfg: (cfg, [eplus_profile("collinear")] * 2),
                 SchemaError, "duplicate divisor name 'E+'", id="duplicate-divisor-name"),
    # E+.E+ in D.divisor was once dropped, and the table built with E+^2 = 1
    pytest.param(lambda cfg: (cfg, [replace(eplus_profile("noncollinear"),
                                            d_dot_divisor={"E-": 5, "E+": 99})]),
                 SchemaError, "divisor 'E+': D_dot_divisor names the divisor itself; its"
                 " self-pairing is D^2, registered as D_squared",
                 id="divisor-pairing-with-itself"),
    # MWPoint prints a torsion point by its entry's name, so O, F and 0 would
    # read as the zero point or the fiber, and a repeated name as one point
    *(pytest.param(lambda cfg, name=name: (_renamed_torsion(cfg, name, "t2", "t3"), ()),
                   SchemaError, f"torsion section name {name!r} is reserved",
                   id=f"torsion-named-{name}") for name in ("O", "F", "0")),
    pytest.param(lambda cfg: (_renamed_torsion(cfg, "t1", "t3", "t3"), ()),
                 SchemaError, "duplicate torsion section name 't3'", id="duplicate-torsion-name"),
    # t2 named s_o would print as "s_o", the generator; an entry may share a
    # section's name only when it is that point (test_forced_torsion_pairing_builds)
    pytest.param(lambda cfg: (_renamed_torsion(cfg, "t1", "s_o", "t3"), ()),
                 SchemaError, "torsion section 's_o': section 's_o' is another point"
                 " (other classes or s.O)",
                 id="torsion-named-like-another-section"),
    pytest.param(lambda cfg: (replace(cfg, sections=(replace(torsion_profile(cfg, T1),
                                                             s_dot_o=1),)), ()),
                 SchemaError, "torsion section 't1': section 't1' is another point"
                 " (other classes or s.O)",
                 id="torsion-named-like-a-section-of-another-s-dot-o"),
    pytest.param(lambda cfg: (_torsion_entries(cfg, t1=(T1.components, (1,))), ()),
                 SchemaError, "torsion section 't1': coords do not match torsion_group",
                 id="torsion-coords-length"),
    pytest.param(lambda cfg: (_torsion_entries(cfg, t1=(T1.components, (2, 0))), ()),
                 SchemaError, "torsion section 't1': zero coords are implicit, not listed",
                 id="torsion-zero-coords"),
    pytest.param(lambda cfg: (_torsion_entries(cfg, t2=(cfg.torsion_table[1].components,
                                                       T1.coords)), ()),
                 InconsistentDataError, "torsion section 't2': duplicate coordinates",
                 id="torsion-duplicate-coords"),
    pytest.param(lambda cfg: (_torsion_entries(cfg, t2=(T1.components, (0, 1))), ()),
                 InconsistentDataError, "torsion sections 't1' and 't2' share a dual class tuple",
                 id="torsion-shared-class"),
    # <P, P> = 2 + 2 = 4 has infinite order; once this table built with
    # generator_rank 4 > ns_rank 3 and let verify_ns_relation answer HOLDS
    pytest.param(lambda cfg: (SurfaceConfig(1, (("a", FiberKind("I", 2)),),
                                            (SectionProfile("s", 1, {"a": 0}),), 0), ()),
                 InconsistentDataError,
                 "section 's' has height 4 > 0, so it has infinite order, but mw_free_rank is 0",
                 id="positive-height-on-rank-zero"),
    # <P, P> = 4 + 0 - 2 - 2 - 1 = -1; once counted as a spanning generator
    pytest.param(lambda cfg: (SurfaceConfig(2, (("a", FiberKind("I", 8)), ("b", FiberKind("I", 8)),
                                                 ("c", FiberKind("I", 4))),
                                            (SectionProfile("s", 0, {"a": 4, "b": 4, "c": 2}),),
                                            1), ()),
                 InconsistentDataError,
                 "section 's' has height -1 < 0; the height pairing is positive semidefinite",
                 id="negative-height"),
    pytest.param(lambda cfg: (_unlisted_torsion_section(0), ()),
                 InconsistentDataError, UNLISTED_TORSION, id="unlisted-torsion-section-rank-0"),
    pytest.param(lambda cfg: (_unlisted_torsion_section(1), ()),
                 InconsistentDataError, UNLISTED_TORSION, id="unlisted-torsion-section-rank-1"),
    # the derivations 2 P_o and -2 P_o force E+.E- = 5; a lone 7 once built
    # and made verify_ns_relation refuse a relation that holds
    pytest.param(lambda cfg: (cfg, [replace(eplus_profile("noncollinear"), d_dot_divisor={"E-": 7}),
                                    replace(eminus_profile("noncollinear"), d_dot_divisor={})]),
                 InconsistentDataError,
                 "divisors 'E+' and 'E-': E+.E- = 7 is registered, but phi0 has rank 1 along"
                 " 's_o', which forces E+.E- = 5", id="divisor-pairing-off-the-phi0-line"),
    # d = 1, D.O = 0 and no fiber components: O + F has D^2 = 1
    pytest.param(lambda cfg: (replace(cfg, sections=(), mw_free_rank=0),
                              [DivisorProfile("D", 1, 0, {}, d_squared=3)]),
                 InconsistentDataError,
                 "divisor 'D': D.D = 3 is registered, but phi0 vanishes on free rank 0,"
                 " which forces D.D = 1", id="self-pairing-off-zero-phi0-on-rank-0"),
    # the type1 E+ has phi0(E+).phi0(s_o) = 0, so phi0(E+)^2 = 0 forces E+^2 = 3;
    # E+^2 = 2 once built and reached derive
    pytest.param(lambda cfg: (cfg, [replace(eplus_profile("collinear"), d_squared=2)]),
                 InconsistentDataError,
                 "divisor 'E+': E+.E+ = 2 is registered, but phi0 has rank 1 along 's_o',"
                 " which forces E+.E+ = 3", id="self-pairing-off-the-phi0-line"),
    pytest.param(lambda cfg: _d_dot_t1(0), InconsistentDataError,
                 "divisor 'D': D.t1 = 0 is registered, but phi0 vanishes on the height-0"
                 " section 't1', which forces D.t1 = 1", id="torsion-pairing-0"),
    pytest.param(lambda cfg: _d_dot_t1(7), InconsistentDataError,
                 "divisor 'D': D.t1 = 7 is registered, but phi0 vanishes on the height-0"
                 " section 't1', which forces D.t1 = 1", id="torsion-pairing-7"),
]


@pytest.mark.parametrize("edit, error, message", REJECTIONS)
def test_build_table_rejections(edit, error, message):
    cfg, divisors = edit(four_line_surface())
    with pytest.raises(error) as exc:
        build_table(cfg, divisors)
    assert type(exc.value) is error and str(exc.value) == message


def test_forced_torsion_pairing_builds():
    assert pair(build_table(*_d_dot_t1(1)), divisor_sym("D"), section_sym("t1")) == 1


def test_profiles_refuse_floats_at_the_table():
    # every integer field of a section, torsion or divisor profile is read
    # exactly: D^2 = 0.1 once failed as "n^2 = 104483511354995507/
    # 18014398509481984 not a perfect square", and D^2 = 1.0 or D.s_o = 0.0
    # were taken silently
    cfg, eplus = four_line_surface(), eplus_profile("noncollinear")
    s_o, t1 = cfg.sections[0], cfg.torsion_table[0]
    with_section = lambda **kw: build_table(replace(cfg, sections=(replace(s_o, **kw),)))
    with_torsion = lambda **kw: build_table(
        replace(cfg, torsion_table=(replace(t1, **kw),) + cfg.torsion_table[1:]))
    with_divisor = lambda **kw: build_table(cfg, [replace(eplus, **kw)])
    builds = [
        lambda x: with_divisor(d=x),
        lambda x: with_divisor(d_dot_o=x),
        lambda x: with_divisor(c={"inf": (x, 1, 1, 0)}),
        lambda x: with_divisor(d_squared=x),
        lambda x: with_divisor(d_dot_section={"s_o": x}),
        lambda x: with_divisor(d_dot_divisor={"E-": x}),
        lambda x: with_section(s_dot_o=x),
        lambda x: with_section(components={**s_o.components, "inf": x}),
        lambda x: with_torsion(components={**t1.components, "1": x}),
        lambda x: with_torsion(coords=(x, 0)),
    ]
    for build in builds:
        for x in (0.1, 1.0, 0.0):
            with pytest.raises(TypeError, match=f"not the float {x!r}"):
                build(x)
        with pytest.raises(SchemaError, match="must be an integer, not 1/2"):
            build(Fraction(1, 2))
    # integral rationals are exact integers
    table = with_divisor(d_squared=Fraction(2, 2), d_dot_section={"s_o": Fraction(0)})
    d = table.divisors["E+"]
    assert type(d.d_squared) is int and type(d.d_dot_section["s_o"]) is int
    assert derive(table, "E+", "s_o").point.free_coeff == 2


@pytest.mark.parametrize("chi, bound", [(1, "Euler"), (170, "exceeds 10 chi")])
def test_bounds_checked_before_any_catalog(chi, bound):
    # an I2000 catalog would take minutes; both bounds must reject from the
    # kinds alone (chi = 170 passes the Euler bound and fails the rank bound)
    cfg = four_line_surface()
    huge = replace(cfg, chi=chi, fibers=cfg.fibers + (("big", FiberKind.parse("I2000")),))
    start = time.perf_counter()
    with pytest.raises(InconsistentDataError, match=bound):
        build_table(huge)
    assert time.perf_counter() - start < 0.5


def test_size_cap_checked_from_kinds(monkeypatch):
    # chi = 1000 lets a lone I9997 fiber through both the Euler and rank bounds
    huge = SurfaceConfig(1000, (("big", FiberKind.parse("I9997")),), (), 1)
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="MAX_COMPONENTS"):
        build_table(huge)
    assert time.perf_counter() - start < 0.5
    cfg = four_line_surface()  # 5 + 3 * 2 = 11 components
    monkeypatch.setattr(nslattice, "MAX_COMPONENTS", 11)
    build_table(cfg)
    monkeypatch.setattr(nslattice, "MAX_COMPONENTS", 10)
    with pytest.raises(SchemaError, match="11 components in all"):
        build_table(cfg)


def test_torsion_table_validation():
    cfg = four_line_surface()

    def classes(components):
        return tuple(
            dual_class_of(fiber_data(kind), components.get(fid, 0)) for fid, kind in cfg.fibers
        )

    # the bundled table is consistent, and each class tuple names its element

    assert build_table(cfg).torsion == {
        classes({}): (None, (0, 0)),
        **{classes(spec.components): (spec.name, spec.coords) for spec in cfg.torsion_table},
    }
    # swapping one component assignment breaks closure; with s_o registered,
    # the non-integral s_o.t2 is refused first
    bad = SurfaceConfig(
        chi=cfg.chi,
        fibers=cfg.fibers,
        sections=(),
        mw_free_rank=1,
        torsion_group=cfg.torsion_group,
        torsion_table=(
            cfg.torsion_table[0],
            TorsionSectionSpec("t2", {"inf": 1, "1": 1, "2": 0, "3": 1}, (0, 1)),
            cfg.torsion_table[2],
        ),
    )
    with pytest.raises(InconsistentDataError, match="not closed under addition"):
        build_table(bad)
    with pytest.raises(InconsistentDataError, match="forces s_o.t2 = -1/2, not an integer"):
        build_table(replace(bad, sections=cfg.sections))
    # incomplete table
    partial = SurfaceConfig(
        chi=cfg.chi,
        fibers=cfg.fibers,
        sections=cfg.sections,
        mw_free_rank=1,
        torsion_group=cfg.torsion_group,
        torsion_table=cfg.torsion_table[:2],
    )
    with pytest.raises(InconsistentDataError):
        build_table(partial)


def test_torsion_pairing_with_a_section_must_be_an_integer():
    # chi = 1, two I4 fibers: s_o through Theta_1 of the first fiber and a
    # 2-torsion t through Theta_2 of both.  <P_o, t> = 0 forces
    # s_o.t = 1 + 0 + 0 + (A^{-1})_12 = 1/2, so no such surface exists
    i4 = FiberKind.parse("I4")
    cfg = SurfaceConfig(
        chi=1, fibers=(("a", i4), ("b", i4)),
        sections=(SectionProfile("s_o", 0, {"a": 1, "b": 0}),), mw_free_rank=1,
        torsion_group=AbelianGroup((2,)),
        torsion_table=(TorsionSectionSpec("t", {"a": 2, "b": 2}, (1,)),),
    )
    with pytest.raises(InconsistentDataError) as exc:
        build_table(cfg)
    assert str(exc.value) == "sections 's_o' and 't': <P, t> = 0 forces s_o.t = 1/2, not an integer"
    # through Theta_1 of both fibers, s_o.t = 1 - 1/2 - 1/2 = 0
    build_table(replace(cfg, sections=(SectionProfile("s_o", 0, {"a": 1, "b": 1}),)))


# fibers I0* (Z/2 x Z/2), I4 (Z/4) and I3 (Z/3): their flat class vectors
# live mod CLOSURE_MODULI, which holds every group of TORSION_GROUPS
CLOSURE_FIBERS = (("a", FiberKind("I*", 0)), ("b", FiberKind("I", 4)), ("c", FiberKind("I", 3)))
CLOSURE_MODULI = (2, 2, 4, 3)
FLAT_CLASSES = list(product(*(range(m) for m in CLOSURE_MODULI)))
TORSION_GROUPS = ((2, 2), (4,), (2, 4), (3,))


def _flat_sum(vectors):
    return tuple(sum(xs) % m for xs, m in zip(zip(*vectors), CLOSURE_MODULI))


@st.composite
def torsion_maps(draw):
    """A torsion group and an injective map from its nonzero elements to
    nonzero flat classes, as a sum of one map per coordinate.  "closed":
    each is k -> k g with f g = 0; "perturbed": the same with one entry moved
    to an unused class; "linear": k -> k g for any g, so only the wrap
    f - 1 -> 0 can break closure; "twisted": one coordinate map is random;
    "random": the whole map is."""
    factors = draw(st.sampled_from(TORSION_GROUPS))
    nonzero = list(product(*(range(f) for f in factors)))[1:]
    mode = draw(st.sampled_from(("closed", "perturbed", "linear", "twisted", "random")))
    if mode == "random":
        return factors, dict(zip(nonzero, draw(st.permutations(FLAT_CLASSES[1:])))), mode
    twisted = draw(st.integers(0, len(factors) - 1)) if mode == "twisted" else None
    columns = []
    for j, f in enumerate(factors):
        if j == twisted:
            columns.append([FLAT_CLASSES[0], *draw(st.permutations(FLAT_CLASSES[1:]))[: f - 1]])
            continue
        pool = FLAT_CLASSES if mode == "linear" else [
            v for v in FLAT_CLASSES if not any(f * x % m for x, m in zip(v, CLOSURE_MODULI))
        ]
        g = draw(st.sampled_from(pool))
        columns.append([tuple(k * x % m for x, m in zip(g, CLOSURE_MODULI)) for k in range(f)])
    flat = {e: _flat_sum([column[k] for column, k in zip(columns, e)]) for e in nonzero}
    values = set(flat.values())
    assume(len(values) == len(flat) and FLAT_CLASSES[0] not in values)
    if mode == "perturbed":
        moved = draw(st.sampled_from(nonzero))
        flat[moved] = draw(st.sampled_from([v for v in FLAT_CLASSES[1:] if v not in values]))
    return factors, flat, mode


@settings(max_examples=200, deadline=None)
@given(torsion_maps(), st.data())
def test_torsion_closure_matches_all_pairs_oracle(case, data):
    factors, flat, mode = case
    fibers = {fid: fiber_data(kind) for fid, kind in CLOSURE_FIBERS}
    widths = [len(fibers[fid].group.invariant_factors) for fid, _ in CLOSURE_FIBERS]
    entries = []
    for j, (coords, cls) in enumerate(flat.items()):
        parts, start = {}, 0
        for (fid, _), w in zip(CLOSURE_FIBERS, widths):
            parts[fid] = fibers[fid].class_to_simple[cls[start : start + w]]
            start += w
        # listed coordinates need not be reduced
        shift = data.draw(st.tuples(*(st.integers(-2, 2) for _ in factors)))
        coords = tuple(c + k * f for c, k, f in zip(coords, shift, factors))
        entries.append(TorsionSectionSpec(f"t{j}", parts, coords))
    cfg = SurfaceConfig(1, CLOSURE_FIBERS, (), 0, AbelianGroup(factors),
                        tuple(data.draw(st.permutations(entries))))
    closed = torsion_closed_reference(
        factors, CLOSURE_MODULI, {**flat, (0,) * len(factors): FLAT_CLASSES[0]}
    )
    # the height-zero condition has its own check; only closure is under test
    with patch.object(nslattice, "_s_dot_o", lambda *args: 0):
        try:
            nslattice._validate_torsion_table(cfg, fibers, {}, lambda components, who: None)
            accepted = True
        except InconsistentDataError as exc:
            assert "not closed under addition" in str(exc)
            accepted = False
    assert accepted == closed
    if mode in ("closed", "perturbed"):
        assert accepted == (mode == "closed")


@pytest.mark.parametrize("components, s_dot_o", [
    ({"inf": 1}, "-1/2"),
    ({"inf": 1, "1": 1, "2": 1, "3": 1}, "1/4"),
    ({"1": 1}, "-3/4"),
    ({}, "-1"),
])
def test_torsion_height_zero_rejection(components, s_dot_o):
    # 2 chi + 2 s.O + sum_v (A_v^{-1})_kk = 0 must give a nonnegative integer s.O
    cfg = four_line_surface()
    t1 = replace(cfg.torsion_table[0], components=components)
    bad = replace(cfg, torsion_table=(t1,) + cfg.torsion_table[1:])
    with pytest.raises(InconsistentDataError) as exc:
        build_table(bad)
    assert str(exc.value) == (
        f"torsion section 't1': height-zero condition gives s.O = {s_dot_o},"
        " not a nonnegative integer"
    )


def test_torsion_profile_heights():
    cfg = four_line_surface()
    for spec in cfg.torsion_table:
        prof = torsion_profile(cfg, spec)
        assert prof.s_dot_o == 0
        # registered as the generator of a table of its own, its height is 0
        t = build_table(replace(cfg, sections=(prof,)), [section_as_divisor(table_with(), prof)])
        with pytest.raises(InconsistentDataError, match=f"generator {spec.name!r} has height 0"):
            derive(t, spec.name, spec.name)


# --- phi0 and friends ---


def test_phi0_zero_for_O_and_F():
    # phi0(D) = D - O and D - F pair to zero with every generator (with the
    # pairings D.s_o = s_o.O = 0 and s_o.F = 1 registered) and with
    # themselves, so derive gives O: phi0(D)^2 = -chi + 2 chi - chi = 0
    t = table_with(replace(O_LIKE, d_dot_section={"s_o": 0}),
                   replace(F_LIKE, d_dot_section={"s_o": 1}))
    for name in ("O_like", "F_like"):
        cls = phi0(t, name)
        assert not any(t.profile(cls)) and t.pair_class(cls, cls) == 0
        assert str(derive(t, name, "s_o").point) == "O"


def test_phi0_eplus_expansion():
    t = table_with(variant="noncollinear")
    cls = phi0(t, "E+")
    assert cls == FormalClass(
        {
            divisor_sym("E+"): 1,
            SYM_O: -3,
            SYM_F: -3,
            theta("inf", 1): 2,
            theta("inf", 2): 2,
            theta("inf", 3): 2,
            theta("inf", 4): 3,
        }
    )


def test_phi0_orthogonal_to_trivial_lattice():
    t = table_with(variant="noncollinear")
    cls = phi0(t, "E+")
    for sym in [SYM_O, SYM_F] + [theta("inf", i) for i in range(5)] + [
        theta(fid, i) for fid in ("1", "2", "3") for i in range(2)
    ]:
        assert t.pair_class(cls, FormalClass.of(sym)) == 0, sym


def test_phi0_self_goldens():
    assert derive(table_with(variant="collinear"), "E+", "s_o").phi0_self == 0
    assert derive(table_with(variant="noncollinear"), "E+", "s_o").phi0_self == -2
    assert derive(table_with(F_LIKE), "F_like", "s_o").phi0_self == 0
    with pytest.raises(MissingIntersectionError, match="D\\^2 required"):
        derive(table_with(DivisorProfile("D", 1, 0, {})), "D", "s_o")


def test_phi0_self_matches_formal_expansion():
    for variant in ("collinear", "noncollinear"):
        t = table_with(variant=variant)
        cls = phi0(t, "E+")
        assert phi0_self(t, "E+") == t.pair_class(cls, cls)


def test_phi0_cross_goldens():
    # the linear route n = -phi0(D).phi0(s_o) / <P_o, P_o> fixes the sign
    for variant, n in (("noncollinear", 2), ("collinear", 0)):
        t = table_with(variant=variant)
        assert phi0_cross(t, "E+", "s_o") == -n * derive(t, "E+", "s_o").height
    # with their pairings O.s_o = s_o.O and F.s_o = 1 registered, the divisors
    # with O's and F's numbers have their signs fixed too
    for prof, s_o in ((O_LIKE, 0), (F_LIKE, 1)):
        t = table_with(replace(prof, d_dot_section={"s_o": s_o}))
        assert phi0_cross(t, prof.name, "s_o") == 0
        der = derive(t, prof.name, "s_o")
        assert (der.point.free_coeff, der.sign_determined) == (0, True)
        # without D.s_o the linear route does not run and the sign stays open
        der = derive(table_with(prof), prof.name, "s_o")
        assert (der.point.free_coeff, der.sign_route) == (0, "open")


def test_phi0_cross_on_section_profile_gives_minus_height():
    tt = table_with(section_as_divisor(table_with(), "s_o"))
    height = derive(tt, "s_o", "s_o").height
    assert phi0_cross(tt, "s_o", "s_o") == -height
    assert phi0_self(tt, "s_o") == -height


# --- heights ---


def test_height_goldens():
    t = table_with(section_as_divisor(table_with(), "s_o"))
    assert derive(t, "s_o", "s_o").height == Fraction(1, 2)
    # a section through identity components everywhere with s.O = 0 has height 2 chi
    s_id = SectionProfile("two_gen", 0, {})
    cfg = replace(four_line_surface(), sections=(s_id,))
    t_id = build_table(cfg, [section_as_divisor(build_table(cfg), "two_gen")])
    assert derive(t_id, "two_gen", "two_gen").height == 2
    # the height is the closed form 2 chi + 2 s.O + sum_v (A_v^{-1})_kk,
    # with A_v^{-1} from the adjugate
    local = sum(inverse_adjugate(t.fibers[fid].a.num)[k - 1][k - 1]
                for fid, k in t.sections["s_o"].components.items() if k)
    assert 2 + 2 * t.sections["s_o"].s_dot_o + local == Fraction(1, 2)


def test_height_distinct_sections_need_data():
    # no field registers s.s' for distinct sections: the pairing is a gap
    s_other = SectionProfile("other", 0, {})
    cfg = four_line_surface()
    t = build_table(replace(cfg, sections=cfg.sections + (s_other,)))
    with pytest.raises(MissingIntersectionError, match="s_o.other"):
        pair(t, section_sym("s_o"), section_sym("other"))


# --- the rank of the generators ---

RANK_KINDS = ("I2", "I3", "I5", "I9", "I0*", "I3*", "III", "IV", "IV*", "III*", "II*")


def _least_chi(kinds, mw_rank):
    """The least chi that the Euler and rank bounds allow."""
    euler = sum(fiber_data(k).euler for k in kinds)
    rank = 2 + sum(fiber_data(k).m - 1 for k in kinds) + mw_rank
    return max(1, -(-euler // 12), -(-rank // 10))


def _multiples(kinds, comps):
    """The components of j s for j = 1, 2, ... up to the order of s, for the
    section s through comps: j s has class j times that of s in each fiber,
    and class_to_simple names its component."""
    data = [fiber_data(k) for k in kinds]
    classes = [dual_class_of(d, k) for d, k in zip(data, comps)]
    multiples = [tuple(comps)]
    while any(multiples[-1]):
        j = len(multiples) + 1
        multiples.append(tuple(d.class_to_simple[d.group.scale(j, c)]
                               for d, c in zip(data, classes)))
    return multiples[:-1]


def _forced_s_dot_o(chi, kinds, comps):
    """The s.O that height zero forces on a section through comps."""
    return -section_height(chi, dict(enumerate(kinds)), 0, dict(enumerate(comps))) / 2


# sections of height zero: every (chi, kinds, components of the multiples j s,
# s.O) on a few small fiber lists where 2 chi + 2 s.O + sum_v (A_v^{-1})_kk = 0
# and every multiple j s (j below the order of s) has an integral s.O >= 0
ZERO_HEIGHT = [
    (chi, kinds, multiples, int(forced[0]))
    for kinds in (("I0*", "I2", "I2", "I2"), ("I4", "I4"), ("I3", "I3", "I3"), ("I2",) * 8,
                  ("I6", "I3", "I2"), ("III*", "I2"), ("IV*", "IV"))
    for chi in range(_least_chi(kinds, 0), 3)
    for comps in product(*((0,) + fiber_data(k).simple for k in kinds))
    if _forced_s_dot_o(chi, kinds, comps) >= 0
    for multiples in [_multiples(kinds, comps)]
    for forced in [[_forced_s_dot_o(chi, kinds, m) for m in multiples]]
    if all(f.denominator == 1 and f >= 0 for f in forced)
]


@st.composite
def rank_tables(draw):
    """A table with no section, one section of positive height, or one of
    height zero with the cyclic torsion table its multiples make."""
    mode = draw(st.sampled_from(["none", "positive", "zero"]))
    torsion = {}
    if mode == "zero":
        chi, kinds, multiples, s_dot_o = draw(st.sampled_from(ZERO_HEIGHT))
        comps = multiples[0]
        torsion = {"torsion_group": AbelianGroup((len(multiples) + 1,)), "torsion_table": tuple(
            TorsionSectionSpec(f"t{j}", {f"v{i}": k for i, k in enumerate(m)}, (j,))
            for j, m in enumerate(multiples, 1)
        )}
    else:
        kinds = tuple(draw(st.lists(st.sampled_from(RANK_KINDS), max_size=4)))
        chi = _least_chi(kinds, 1) + draw(st.integers(0, 1))
        comps = tuple(draw(st.sampled_from((0,) + fiber_data(k).simple)) for k in kinds)
        at_zero = section_height(chi, dict(enumerate(kinds)), 0, dict(enumerate(comps)))
        # the least s.O >= 0 with 2 s.O > -at_zero, plus a little
        s_dot_o = max(0, floor(-at_zero / 2) + 1) + draw(st.integers(0, 2))
    fibers = tuple((f"v{i}", FiberKind.parse(k)) for i, k in enumerate(kinds))
    sections = () if mode == "none" else (
        SectionProfile("s", s_dot_o, {fid: k for (fid, _), k in zip(fibers, comps)}),
    )
    return mode, build_table(SurfaceConfig(chi, fibers, sections, int(mode == "positive"),
                                           **torsion))


@settings(max_examples=100, deadline=None)
@given(rank_tables())
def test_generator_rank_matches_the_rank_of_the_gram_block(case):
    mode, table = case
    assert len(ZERO_HEIGHT) >= 20
    gens = table.generators()
    block = [table.profile(FormalClass.of(g)) for g in gens]
    rank = sum(1 for f in smith_normal_form(block).invariant_factors if f)
    assert table.generator_rank == rank
    trivial = 2 + sum(data.m - 1 for data in table.fibers.values())
    assert rank == trivial + (mode == "positive")


def _one_section(chi, kinds, components, s_dot_o, rank):
    fibers = tuple((f"v{i}", FiberKind.parse(k)) for i, k in enumerate(kinds))
    comps = {fid: k for (fid, _), k in zip(fibers, components)}
    return SurfaceConfig(chi, fibers, (SectionProfile("s", s_dot_o, comps),), rank)


@st.composite
def one_section_surfaces(draw):
    """A surface with one section: kinds, chi from the Euler and rank bounds,
    a simple component in each fiber, s.O in 0..3 and free rank 0 or 1."""
    kinds = tuple(draw(st.lists(st.sampled_from(RANK_KINDS), max_size=4)))
    rank = draw(st.integers(0, 1))
    chi = _least_chi(kinds, rank) + draw(st.integers(0, 1))
    comps = [draw(st.sampled_from((0,) + fiber_data(k).simple)) for k in kinds]
    return _one_section(chi, kinds, comps, draw(st.integers(0, 3)), rank)


# random draws rarely reach a height <= 0, so each outcome is also pinned
@settings(max_examples=100, deadline=None)
@given(one_section_surfaces())
@example(_one_section(2, ("I9", "I9"), (4, 4), 0, 1))  # 4 - 20/9 - 20/9 = -4/9
# 2 - 3 * 2/3 = 0: a torsion section, and no torsion table lists it
@example(_one_section(1, ("I3", "I3", "I3"), (1, 1, 1), 0, 0))
@example(_one_section(1, ("I3", "I3", "I3"), (1, 1, 1), 0, 1))
@example(_one_section(1, ("I2",), (0,), 1, 0))  # 2 + 2 = 4 on free rank 0
def test_build_table_accepts_exactly_the_possible_heights(cfg):
    # these surfaces have no torsion table, so a section of height 0 (a
    # torsion section, never O itself) is refused like a negative height
    s = cfg.sections[0]
    h = section_height(cfg.chi, dict(cfg.fibers), s.s_dot_o, s.components)
    if h <= 0 or cfg.mw_free_rank < 1:
        with pytest.raises(InconsistentDataError, match=f"^section 's' has height {h}[ ,]"):
            build_table(cfg)
        return
    table = build_table(cfg)
    assert table.heights == {"s": h}
    assert table.generator_rank <= cfg.ns_rank


# --- free coefficient ---


def n_of(table, name, generator):
    """The derivation record, with n read off the point."""
    der = derive(table, name, generator)
    return der.point.free_coeff, der


def test_n_of_goldens():
    n, res = n_of(table_with(variant="noncollinear"), "E+", "s_o")
    assert (n, res.n_squared, res.sign_determined) == (2, 4, True)
    assert res.phi0_self == -2 and res.height == Fraction(1, 2)
    n0, res0 = n_of(table_with(variant="collinear"), "E+", "s_o")
    assert (n0, res0.n_squared, res0.sign_determined) == (0, 0, True)
    assert res0.phi0_self == 0


def test_n_of_generator_multiples():
    # s corresponding to 2 P_o: all identity components, s.O = 0, s.s_o = 0
    t = table_with(
        DivisorProfile(
            "two", d=1, d_dot_o=0, c={}, d_squared=-1, d_dot_section={"s_o": 0}
        )
    )
    n, res = n_of(t, "two", "s_o")
    assert (n, res.n_squared, res.sign_determined) == (2, 4, True)
    # the generator itself round-trips to n = 1
    tt = table_with(section_as_divisor(table_with(), "s_o"))
    n1, res1 = n_of(tt, "s_o", "s_o")
    assert (n1, res1.n_squared) == (1, 1)


def test_n_of_sign_undetermined():
    t = table_with(replace(eplus_profile("noncollinear"), d_dot_section={}))
    n, res = n_of(t, "E+", "s_o")
    assert (n, res.sign_determined) == (2, False)


def test_n_of_rejects_non_square():
    # no E+.s_o, so build_table leaves E+^2 unchecked
    bad = DivisorProfile("E+", 3, 0, {"inf": (1, 1, 1, 0)}, d_squared=2)
    with pytest.raises(InconsistentDataError, match="not a perfect square"):
        n_of(table_with(bad), "E+", "s_o")


def test_n_of_rejects_linear_mismatch():
    # the linear n = 0 against n^2 = 4: E+^2 = 1 is off the phi0 line through
    # phi0(s_o), so build_table refuses it before derive can read either
    bad = DivisorProfile(
        "E+", 3, 0, {"inf": (1, 1, 1, 0)}, d_squared=1, d_dot_section={"s_o": 1}
    )
    with pytest.raises(InconsistentDataError) as exc:
        table_with(bad)
    assert str(exc.value) == ("divisor 'E+': E+.E+ = 1 is registered, but phi0 has rank 1"
                              " along 's_o', which forces E+.E+ = 3")


def test_n_of_needs_rank_one():
    # build_table refuses a section of positive height on free rank 0, so the
    # free coefficient's own check is met on rank 2: D = s, height 3/2
    cfg = SurfaceConfig(1, (("a", FiberKind("I", 2)),), (SectionProfile("s", 0, {"a": 1}),), 2)
    d = DivisorProfile("D", 1, 0, {"a": (1,)}, d_squared=-1, d_dot_section={"s": -1})
    table = build_table(cfg, [d])
    assert table.heights == {"s": Fraction(3, 2)}
    with pytest.raises(InconsistentDataError) as exc:
        n_of(table, "D", "s")
    assert str(exc.value) == "free coefficient needs Mordell-Weil free rank 1, not 2"


# --- formal classes ---


def test_formal_class_holds_exact_coefficients():
    s = section_sym("s_o")
    # an integral coefficient is stored as an int, however it was given
    cls = FormalClass({s: Fraction(2), SYM_O: Fraction(1, 2)})
    assert cls == FormalClass({s: 2, SYM_O: Fraction(1, 2)})
    assert type(cls.coeffs[s]) is int and type(cls.coeffs[SYM_O]) is Fraction
    assert type(FormalClass({SYM_O: 2 * cls.coeffs[SYM_O]}).coeffs[SYM_O]) is int
    assert type(FormalClass.of(s).coeffs[s]) is int
    assert repr(cls) == "1/2*O + 2*s_o"
    assert repr(FormalClass({s: Fraction(-3), SYM_F: 1})) == "1*F + -3*s_o"
    # pairings still come back as Fractions
    t = table_with(variant="noncollinear")
    value = t.pair_class(cls, FormalClass.of(SYM_F))
    assert type(value) is Fraction and value == Fraction(5, 2)
    # a float is refused, not stored as its binary expansion
    for x in (0.1, 2.0):
        with pytest.raises(TypeError, match=f"float {x!r}"):
            FormalClass({s: x})


# --- profile_from_class and random-profile properties ---


def test_profile_from_class_round_trip():
    t = table_with(variant="noncollinear")
    cls = FormalClass(
        {
            divisor_sym("E+"): 1,
            SYM_O: 2,
            SYM_F: -1,
            theta("inf", 2): 1,
            section_sym("s_o"): 3,
        }
    )
    prof = profile_from_class(t, cls, "X")
    t2 = table_with(prof, variant="noncollinear")
    x = divisor_sym("X")
    for sym in t.generators():
        assert pair(t2, x, sym) == t.pair_class(cls, FormalClass.of(sym))
    assert pair(t2, x, x) == t.pair_class(cls, cls)


@st.composite
def random_profiles(draw):
    d = draw(st.integers(0, 4))
    d_dot_o = draw(st.integers(0, 3))
    c_inf = tuple(draw(st.integers(-2, 3)) for _ in range(4))
    cs = {fid: (draw(st.integers(-2, 3)),) for fid in ("1", "2", "3")}
    d_sq = draw(st.integers(-8, 8))
    return DivisorProfile("D", d, d_dot_o, {"inf": c_inf, **cs}, d_squared=d_sq)


@settings(max_examples=60)
@given(random_profiles())
def test_phi0_orthogonality_property(prof):
    t = table_with(prof)
    cls = phi0(t, "D")
    for sym in [SYM_O, SYM_F, theta("inf", 3), theta("2", 1), theta("inf", 0)]:
        assert t.pair_class(cls, FormalClass.of(sym)) == 0
    assert phi0_self(t, "D") == t.pair_class(cls, cls)


O_LIKE_7 = replace(O_LIKE, d_dot_o=-7, d_squared=-7)


def _wide_table():
    # I30 + I26* at chi = 7 with two sections, so distinct sections, a
    # missing D.s, a missing D^2 and a missing D.D' all leave gaps
    kinds = (("a", "I30"), ("b", "I26*"))
    simple = fiber_data("I26*").simple
    cfg = SurfaceConfig(
        7, tuple((fid, FiberKind.parse(kind)) for fid, kind in kinds),
        (SectionProfile("s1", 1, {"a": 3, "b": simple[0]}),
         SectionProfile("s2", 2, {"a": 17, "b": simple[2]})), 2,
    )
    rng = random.Random(6)
    c = lambda: {fid: tuple(rng.randint(-2, 2) for _ in range(fiber_data(k).m - 1))
                 for fid, k in kinds}
    return build_table(cfg, [
        DivisorProfile("D1", 2, 1, c(), d_dot_section={"s1": 3}),
        DivisorProfile("D2", 1, 0, c(), d_squared=-4, d_dot_section={"s1": 0, "s2": 1},
                       d_dot_divisor={"D1": 4}),
        DivisorProfile("D3", 0, 2, c(), d_squared=2),
        O_LIKE_7, F_LIKE,
    ])


GRAM_TABLES = [
    build_table(doc.surface, doc.divisors + (O_LIKE, F_LIKE))
    for doc in map(bundled_config, BUNDLED)
] + [_wide_table()]


@st.composite
def class_pairs(draw):
    table = draw(st.sampled_from(GRAM_TABLES))
    # sections and divisors carry the gaps and Theta_{v,0} the fiber relation,
    # so each gets a third of the draws
    named = [section_sym(s) for s in table.sections] + [divisor_sym(d) for d in table.divisors]
    theta0 = [theta(fid, 0) for fid, _ in table.cfg.fibers]
    syms = st.sampled_from(named) | st.sampled_from(theta0) | st.sampled_from(table.generators())
    coeff = st.integers(-3, 3) | st.fractions(-3, 3, max_denominator=4)
    cls = st.dictionaries(syms, coeff, min_size=1, max_size=3).map(FormalClass)
    return table, draw(cls), draw(cls)


def _outcome(pairing, x, y):
    try:
        return pairing(x, y)
    except MissingIntersectionError:
        return "missing"


def test_gram_matches_symbolic_reference_on_every_symbol_pair():
    for table in GRAM_TABLES:
        syms = table.generators() + [theta(fid, 0) for fid, _ in table.cfg.fibers]
        syms += [divisor_sym(name) for name in table.divisors]
        for a in syms:
            for b in syms:
                got = _outcome(lambda x, y: pair(table, x, y), a, b)
                assert got == _outcome(lambda x, y: pair_reference(table, x, y), a, b), (a, b)


@settings(max_examples=100, deadline=None)
@given(class_pairs())
def test_gram_pairing_matches_symbolic_reference(case):
    table, x, y = case
    got = _outcome(table.pair_class, x, y)
    assert got == _outcome(lambda a, b: pair_class_reference(table, a, b), x, y)
    assert got == _outcome(table.pair_class, y, x)


def test_height_bilinear_in_random_combinations():
    # <P,Q> computed through phi0_cross is linear in integer multiples of rows
    rng = random.Random(3)
    base = table_with()
    s = section_as_divisor(base, "s_o")
    for _ in range(10):
        k = rng.randint(-3, 3)
        prof = DivisorProfile(
            "kD",
            k * s.d,
            k * s.d_dot_o,
            {fid: tuple(k * x for x in vec) for fid, vec in s.c.items()},
            d_dot_section={"s_o": k * s.d_dot_section["s_o"]},
        )
        t = table_with(prof)
        assert phi0_cross(t, "kD", "s_o") == k * phi0_cross(
            table_with(s), "s_o", "s_o"
        )


# --- one phi0 pairing, on drawn surfaces ---

PAIRING_KINDS = ("I2", "I3", "I5", "I0*", "I3*", "IV*", "III*", "I30", "I33", "I37", "I31*")


def _least_s_dot_o(chi, kinds, comps):
    """The least s.O >= 0 that gives a section through comps a positive
    height 2 chi + 2 s.O - sum_v contr_v."""
    local = sum(contribution(kind, j) for kind, j in zip(kinds, comps))
    return max(0, floor(local / 2 - chi) + 1)


@st.composite
def pairing_draws(draw, kinds=PAIRING_KINDS, ranks=(0, 1)):
    """A surface with trivial torsion, on free rank 1 with one generator s
    (s.O at most 2 above the least that gives a positive height) or on free
    rank 0 with no section, and the profiles of two classes D = k s + noise
    and D' = k' s + noise (noise in the trivial lattice, k and k' in -3..3).
    Returns the section-only table, both profiles, the true D.D', offsets
    of D.D' and of D'^2 by 0 or +-1, whether D'.s stays registered, and
    (k, k')."""
    kinds = tuple(draw(st.lists(st.sampled_from(kinds), min_size=1, max_size=3)))
    rank = draw(st.sampled_from(ranks))
    chi = _least_chi(kinds, rank) + draw(st.integers(0, 1))
    fibers = tuple((f"v{i}", FiberKind.parse(k)) for i, k in enumerate(kinds))
    comps = [draw(st.sampled_from((0,) + fiber_data(k).simple)) for k in kinds]
    sections = () if not rank else (SectionProfile(
        "s", _least_s_dot_o(chi, kinds, comps) + draw(st.integers(0, 2)),
        {fid: j for (fid, _), j in zip(fibers, comps)}),)
    base = build_table(SurfaceConfig(chi, fibers, sections, rank))
    trivial = [SYM_O, SYM_F] + [theta(fid, i) for fid, _ in fibers
                                for i in range(1, base.fibers[fid].m)]

    def drawn_class():
        noise = draw(st.dictionaries(st.sampled_from(trivial), st.integers(-3, 3), max_size=4))
        k = draw(st.integers(-3, 3)) * rank
        return k, FormalClass({**noise, section_sym("s"): k})

    (k, x), (k2, y) = drawn_class(), drawn_class()
    profiles = profile_from_class(base, x, "D"), profile_from_class(base, y, "D'")
    right = int(base.pair_class(x, y))
    offsets = draw(st.sampled_from((0, 1, -1))), draw(st.sampled_from((0, 1, -1)))
    return base, profiles, right, offsets, draw(st.booleans()), (k, k2)


@settings(max_examples=60, deadline=None)
@given(pairing_draws())
def test_phi0_pairing_on_drawn_surfaces(case):
    base, (d, d2), right, (offset, square_offset), keep, _ = case
    cfg, chi = base.cfg, base.cfg.chi
    pinned = keep or not cfg.mw_free_rank
    # build_table accepts exactly the true D.D' and D'^2 wherever the form
    # pins them down: on free rank 0, or on rank 1 with D'.s registered
    lone = d2 if keep else replace(d2, d_dot_section={})
    wrong = [replace(d, d_dot_divisor={"D'": right + offset}), lone]
    if offset and pinned:
        with pytest.raises(InconsistentDataError, match=f"which forces D.D' = {right}$"):
            build_table(cfg, wrong)
    else:
        build_table(cfg, wrong)
    wrong = [replace(lone, d_squared=d2.d_squared + square_offset)]
    if square_offset and pinned:
        with pytest.raises(InconsistentDataError, match=f"which forces D'.D' = {d2.d_squared}$"):
            build_table(cfg, wrong)
    else:
        build_table(cfg, wrong)
    # the form against the Gram pairing of the oracle's phi0 classes; the
    # generator is registered again as the divisor S for its phi0 class, and
    # the form reads it as the section
    divisors = [replace(d, d_dot_divisor={"D'": right}), d2]
    pairs = [("D", "D"), ("D", "D'"), ("D'", "D'")]
    if cfg.mw_free_rank:
        divisors = [replace(p, d_dot_divisor={**p.d_dot_divisor, "S": p.d_dot_section["s"]})
                    for p in divisors] + [section_as_divisor(base, "s", "S")]
        pairs += [("D", "S"), ("D'", "S"), ("S", "S")]
    table = build_table(cfg, divisors)
    profile = {**table.divisors, "S": table.sections.get("s")}
    sym = {"D": divisor_sym("D"), "D'": divisor_sym("D'"), "S": section_sym("s")}
    for a, b in pairs:
        xy = pair(table, sym[a], sym[b])
        form = nslattice._phi0_pairing(chi, table.fibers, profile[a], profile[b], xy)
        assert form == table.pair_class(phi0(table, a), phi0(table, b)), (a, b)


def test_contribution_closed_form_matches_the_adjugate():
    # contr_v(kP) = -(A_v^{-1})_jj on the component j that kP meets, which
    # the catalog's class arithmetic names; A_v^{-1} from the adjugate
    for kind in RANK_KINDS + ("I4", "I7", "I1*", "I2*", "I4*"):
        data = fiber_data(kind)
        inv = inverse_adjugate(data.a.num)
        for j in (0,) + data.simple:
            for k in range(-4, 5):
                jk = data.class_to_simple[data.group.reduce(k * x for x in dual_class_of(data, j))]
                want = -inv[jk - 1][jk - 1] if jk else 0
                assert contribution(kind, j, k) == want, (kind, j, k)


# every fiber has 30 or more components, so each derive reads large A_v^{-1}
WIDE_KINDS = ("I30", "I33", "I37", "I25*", "I31*")


def _multiple_case(chi, kind, j, s_dot_o, k):
    """pairing_draws' shape for D' = k s with D'.s registered, on one fiber of
    this kind and a section s through its component j."""
    section = SectionProfile("s", s_dot_o, {"v0": j})
    base = build_table(SurfaceConfig(chi, (("v0", FiberKind.parse(kind)),), (section,), 1))
    d = profile_from_class(base, FormalClass({section_sym("s"): k}), "D'")
    return base, (None, d), None, None, True, (None, k)


# 80 examples cap the test at about 1 s (10-15 ms each on a 2-CPU x86_64 host)
@settings(max_examples=80, deadline=None)
@given(pairing_draws(WIDE_KINDS, ranks=(1,)))
# random draws rarely land next to the refusal: s(2P).O is -1 and 0 here
@example(_multiple_case(4, "I30", 13, 0, 2))
@example(_multiple_case(4, "I30", 12, 0, 2))
def test_derive_on_drawn_wide_surfaces(case):
    # D' = k s + noise: derive gives k P_o, or with D'.s absent |k| P_o when
    # torsion cannot tell the signs apart; s(D').O is the s.O of kP_o, and
    # a negative one on a point other than O is refused
    base, (_, d), _, _, keep, (_, k) = case
    cfg = base.cfg
    table = build_table(cfg, [d if keep else replace(d, d_dot_section={})])
    s_dot_o = multiple_s_dot_o(cfg.chi, dict(cfg.fibers), base.sections["s"], k)
    if k and s_dot_o < 0:
        with pytest.raises(InconsistentDataError) as exc:
            derive(table, "D'", "s")
        assert str(exc.value).startswith(f"height identity gives s(D).O = {s_dot_o},")
        return
    der = derive(table, "D'", "s")
    # phi0_self is -n^2 <P_o, P_o>, so the Gram pairing checks n and the height
    cls = phi0(table, "D'")
    assert der.phi0_self == table.pair_class(cls, cls)
    assert (der.n_squared, der.s_dot_o, der.point.torsion) == (k * k, s_dot_o, ())
    if keep:
        assert (der.point.free_coeff, der.sign_route) == (k, "pairing")
    else:
        assert (der.point.free_coeff, der.sign_route) in ((k, "torsion"), (abs(k), "open"))
