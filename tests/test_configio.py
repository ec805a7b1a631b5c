import random
import time
from fractions import Fraction

import pytest

from ajimage.configio import (
    BUNDLED,
    MAX_DIGITS,
    ConfigDocument,
    bundled_config,
    divisor_from_dict,
    load_config,
    loads_config,
    parse_config,
    parse_int,
    parse_rational,
)
from ajimage.errors import SchemaError
from ajimage.fourlines import eminus_profile, eplus_profile, four_line_surface
from ajimage.kodaira import AbelianGroup, FiberKind
from ajimage.mwgroup import MWPoint, abel_jacobi_image
from ajimage.nslattice import DivisorProfile, SectionProfile, SurfaceConfig, build_table

from oracles import DATA, dumps_config, shipped_document


def test_bundled_documents_are_canonical_dumps():
    assert sorted(p.stem for p in DATA.glob("*.json")) == sorted(BUNDLED)
    for name in BUNDLED:
        assert (DATA / f"{name}.json").read_bytes() == dumps_config(bundled_config(name)).encode()


def test_bundled_documents_share_one_surface():
    type1, type2 = (bundled_config(name) for name in BUNDLED)
    assert type1.surface == type2.surface == four_line_surface()
    assert bundled_config("fourlines_type1") is type1  # parsed once per process


def test_bundled_splitting_numbers():
    # the fourlines docstring's numbers, read off the shipped profiles:
    # (E+)^2, E+.E-, E+.s_o, E-.s_o for the collinear resp. non-collinear shape
    for variant, numbers in (("collinear", (3, 3, 1, 1)), ("noncollinear", (1, 5, 0, 2))):
        plus, minus = eplus_profile(variant), eminus_profile(variant)
        assert (plus.d_squared, plus.d_dot_divisor["E-"], plus.d_dot_section["s_o"],
                minus.d_dot_section["s_o"]) == numbers
        assert minus.d_squared == plus.d_squared and minus.d_dot_divisor == {"E+": numbers[1]}
        assert (minus.d, minus.d_dot_o, minus.c) == (plus.d, plus.d_dot_o, plus.c)
        assert plus.c["inf"] == (1, 1, 1, 0) and (plus.d, plus.d_dot_o) == (3, 0)


def test_bundled_round_trip():
    for name in BUNDLED:
        doc = bundled_config(name)
        assert loads_config(dumps_config(doc)) == doc


def test_bundled_pipeline_goldens():
    t2 = bundled_config("fourlines_type2")
    table = build_table(t2.surface, t2.divisors)
    assert abel_jacobi_image(table, "E+", "s_o") == MWPoint(2, (0, 0), None)
    t1 = bundled_config("fourlines_type1")
    table1 = build_table(t1.surface, t1.divisors)
    assert abel_jacobi_image(table1, "E+", "s_o") == MWPoint(0, (0, 0), None)


def test_randomized_round_trip():
    rng = random.Random(77)
    kinds = ["I2", "I5", "I0*", "I3*", "III", "IV", "IV*", "III*", "II*"]
    for _ in range(25):
        fibers = tuple(
            (f"f{i}", FiberKind.parse(rng.choice(kinds))) for i in range(rng.randint(1, 4))
        )
        sections = tuple(
            SectionProfile(f"s{i}", rng.randint(0, 3), {fibers[0][0]: 0})
            for i in range(rng.randint(0, 2))
        )
        cfg = SurfaceConfig(rng.randint(1, 3), fibers, sections, rng.randint(0, 2))
        divisors = tuple(
            DivisorProfile(
                f"D{i}",
                rng.randint(1, 4),
                rng.randint(-2, 5),
                {fibers[0][0]: (0,)},
                d_squared=rng.choice([None, rng.randint(-6, 6)]),
                d_dot_section={s.name: rng.randint(0, 2) for s in sections},
            )
            for i in range(rng.randint(0, 3))
        )
        doc = ConfigDocument(cfg, divisors)
        assert loads_config(dumps_config(doc)) == doc


def base_doc():
    return shipped_document("fourlines_type1")


def test_unknown_keys_rejected():
    doc = base_doc()
    doc["extra"] = 1
    with pytest.raises(SchemaError, match="unknown keys.*extra"):
        parse_config(doc)
    doc = base_doc()
    doc["surface"]["colour"] = "blue"
    with pytest.raises(SchemaError, match="surface: unknown keys"):
        parse_config(doc)
    doc = base_doc()
    doc["surface"]["fibers"][0]["euler"] = 6
    with pytest.raises(SchemaError, match=r"fibers\[0\]: unknown keys"):
        parse_config(doc)
    doc = base_doc()
    doc["surface"]["sections"][0]["height"] = "1/2"
    with pytest.raises(SchemaError, match=r"sections\[0\]: unknown keys"):
        parse_config(doc)
    doc = base_doc()
    doc["divisors"][0]["genus"] = 1
    with pytest.raises(SchemaError, match="divisor 'E\\+': unknown keys"):
        parse_config(doc)
    doc = base_doc()
    doc["surface"]["torsion_table"][0]["order"] = 2
    with pytest.raises(SchemaError, match=r"torsion_table\[0\]: unknown keys"):
        parse_config(doc)


def test_missing_keys_rejected():
    doc = base_doc()
    del doc["surface"]["chi"]
    with pytest.raises(SchemaError, match="missing required keys.*chi"):
        parse_config(doc)
    doc = base_doc()
    del doc["divisors"][0]["c"]
    with pytest.raises(SchemaError, match="missing required keys"):
        parse_config(doc)


def test_schema_version_checked():
    doc = base_doc()
    doc["schema_version"] = 2
    with pytest.raises(SchemaError, match="schema_version 2"):
        parse_config(doc)
    del doc["schema_version"]
    with pytest.raises(SchemaError, match="missing required keys"):
        parse_config(doc)


def test_rational_parsing():
    assert parse_rational(3, "x") == 3
    assert parse_rational("7/2", "x") == 3.5
    assert parse_rational("-4", "x") == -4
    with pytest.raises(SchemaError, match="float"):
        parse_rational(1.5, "x")
    with pytest.raises(SchemaError, match="boolean"):
        parse_rational(True, "x")
    with pytest.raises(SchemaError, match="not an exact rational"):
        parse_rational("3.14.15", "x")
    # only optional sign, digits and one slash: no exponents, decimals,
    # underscores or whitespace
    for text in ("1e5", "1.5", "1_000", " 3", "3/-4", "", "/2"):
        with pytest.raises(SchemaError, match="not an exact rational"):
            parse_rational(text, "x")
    assert parse_rational("+7", "x") == 7 and parse_rational("-10/4", "x") == Fraction(-5, 2)
    with pytest.raises(SchemaError, match="zero denominator"):
        parse_rational("3/000", "x")
    # MAX_DIGITS bounds each digit run (leading zeros aside) and JSON integers
    bound = "9" * MAX_DIGITS
    assert parse_rational(f"-{bound}/{bound}", "x") == -1
    assert parse_rational("0" * 400 + "7", "x") == 7
    assert parse_int(-int(bound), "x") == -int(bound)
    for value in (bound + "9", f"1/{bound}9", 10**MAX_DIGITS, -(10**MAX_DIGITS)):
        with pytest.raises(SchemaError, match="MAX_DIGITS"):
            parse_rational(value, "x")
    with pytest.raises(SchemaError, match="MAX_DIGITS"):
        parse_int(10**MAX_DIGITS, "x")
    start = time.perf_counter()
    with pytest.raises(SchemaError, match="not an exact rational"):
        parse_rational("1e10000000", "x")  # Fraction alone spends seconds on it
    assert time.perf_counter() - start < 0.5
    doc = base_doc()
    doc["divisors"][0]["D_squared"] = "6/2"  # exact strings are fine when integral
    assert parse_config(doc).divisors[0].d_squared == 3
    doc["divisors"][0]["D_squared"] = "1/2"
    with pytest.raises(SchemaError, match="expected an integer"):
        parse_config(doc)


def test_bad_fiber_kind_rejected():
    doc = base_doc()
    doc["surface"]["fibers"][0]["kind"] = "I1"
    with pytest.raises(SchemaError, match="irreducible"):
        parse_config(doc)
    doc["surface"]["fibers"][0]["kind"] = "V2"
    with pytest.raises(SchemaError):
        parse_config(doc)


# (path into the document, bad value, expected message): values that used to
# escape the schema check as a TypeError or pass it outright
SCHEMA_CASES = [
    (("surface", "sections"), 5, "surface.sections: expected a list"),
    (("surface", "torsion_group"), 4, "surface.torsion_group: expected a list"),
    (("surface", "torsion_table"), None, "surface.torsion_table: expected a list"),
    (("surface", "torsion_table", 0, "coords"), 1, r"torsion_table\[0\].coords: expected a list"),
    (("surface", "mw_free_rank"), -3, "surface.mw_free_rank: must be >= 0"),
    (("surface",), [], "surface: expected an object"),
    (("surface", "sections", 0, "components"), [],
     r"surface.sections\[0\].components: expected an object of integers"),
    (("surface", "fibers", 0, "id"), "", r"surface.fibers\[0\]: 'id' must be a nonempty string"),
    (("surface", "chi"), None, "surface.chi: expected integer or 'p/q' string, got NoneType"),
] + [
    # an exponent string used to cost seconds in Fraction and crash the
    # rendering of the result; now only "p" and "p/q" parse
    pytest.param(path, "1e5000", "is not an exact rational", id=f"exponent-{path[-1]}")
    for path in (("divisors", 0, "d"), ("divisors", 0, "D_dot_O"), ("divisors", 0, "D_squared"),
                 ("divisors", 0, "D_dot_section", "s_o"), ("divisors", 0, "c", "inf", 0),
                 ("surface", "chi"), ("surface", "sections", 0, "s_dot_O"))
] + [
    pytest.param(("divisors", 0, "d"), int("9" * 3000), "integer has more than MAX_DIGITS",
                 id="3000-digit-json-integer"),
    pytest.param(("divisors", 0, "d"), "9" * 500 + "/7", "more than MAX_DIGITS",
                 id="500-digit-numerator"),
]


def with_value(doc, path, value):
    target = doc
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    return doc


@pytest.mark.parametrize("path, value, message", SCHEMA_CASES)
def test_malformed_surface_fields_rejected(path, value, message):
    with pytest.raises(SchemaError, match=message):
        parse_config(with_value(base_doc(), path, value))


def test_bad_torsion_group_rejected():
    doc = base_doc()
    doc["surface"]["torsion_group"] = [3, 2]
    with pytest.raises(SchemaError, match="divisibility chain"):
        parse_config(doc)


def test_divisor_requires_name_and_shape():
    with pytest.raises(SchemaError):
        divisor_from_dict({"name": "D", "d": 1, "D_dot_O": 0, "c": "nope"})
    with pytest.raises(SchemaError):
        divisor_from_dict({"name": "D", "d": 1, "D_dot_O": 0, "c": {"inf": 3}})


def test_invalid_json_text():
    with pytest.raises(SchemaError, match="invalid JSON"):
        loads_config("{not json")


def test_unknown_bundle_name():
    with pytest.raises(SchemaError, match="no bundled config"):
        bundled_config("fourlines_type9")


def test_load_config_from_file():
    assert load_config(DATA / "fourlines_type2.json") == bundled_config("fourlines_type2")


