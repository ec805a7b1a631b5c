"""End-to-end tests of the command-line front end.

Everything goes through cli.main(argv) with captured stdio, so exit codes
and printed text are tested exactly as a shell user would see them; one
subprocess test exercises the ``python -m ajimage`` entry point for real.
"""

import argparse
import json
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ajimage import cli, dihedral, fourlines, mwgroup
from ajimage.configio import MAX_DIGITS, bundled_config, loads_config, render_number
from ajimage.errors import DegenerateArrangementError
from ajimage.kodaira import fiber_data

from oracles import DATA, dumps_config, matrix_layout, shipped_document
from test_configio import SCHEMA_CASES, with_value


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# fiber


def test_fiber_text_golden(capsys):
    code, out, err = run(capsys, "fiber", "I0*")
    assert code == 0 and err == ""
    assert "component group: Z/2 x Z/2" in out
    assert "[  1   1   1  -2 ]" in out
    assert "[   -1    -1    -1    -2 ]" in out
    assert "Theta_3 -> (1, 1)" in out
    assert "euler number: 6" in out


def test_fiber_json(capsys):
    code, out, _ = run(capsys, "fiber", "I0*", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["a"] == [[-2, 0, 0, 1], [0, -2, 0, 1], [0, 0, -2, 1], [1, 1, 1, -2]]
    assert doc["a_inv"][0] == [-1, "-1/2", "-1/2", -1]
    assert doc["a_inv"][3] == [-1, -1, -1, -2]
    assert doc["component_group"] == [2, 2]
    assert doc["dual_classes"] == {
        "Theta_1": [1, 0], "Theta_2": [0, 1], "Theta_3": [1, 1], "Theta_4": [0, 0]
    }
    assert doc["multiplicities"] == [1, 1, 1, 1, 2]
    assert doc["simple_components"] == [0, 1, 2, 3]


RENDER_KINDS = ([f"I{n}" for n in range(2, 41)] + [f"I{n}*" for n in range(31)]
                + ["III", "IV", "IV*", "III*", "II*"])


def test_fiber_matrices_render_like_the_fraction_oracle(capsys):
    # the integer renderer against the Fraction-per-entry layout it replaced
    for kind in RENDER_KINDS:
        data = fiber_data(kind)
        code, out, _ = run(capsys, "fiber", kind, "--json")
        assert code == 0
        doc = json.loads(out)
        blocks = []
        for key in ("a", "a_inv"):
            m = getattr(data, key)
            assert doc[key] == [[render_number(Fraction(x, m.den)) for x in row] for row in m.num]
            lines = matrix_layout(m.rows)
            assert str(m).splitlines() == lines
            blocks.append("\n".join("  " + line for line in lines))
        code, text, _ = run(capsys, "fiber", kind)
        assert code == 0
        assert f"):\n{blocks[0]}\ninverse A^-1:\n{blocks[1]}\ncomponent group:" in text


def test_fiber_json_lays_out_no_text(capsys, monkeypatch):
    calls = []
    layout = cli.matrix_lines
    monkeypatch.setattr(cli, "matrix_lines", lambda cells: calls.append(cells) or layout(cells))
    assert run(capsys, "fiber", "I9", "--json")[0] == 0
    assert calls == []
    assert run(capsys, "fiber", "I9")[0] == 0
    assert len(calls) == 2


def test_fiber_rejects_irreducible_and_unknown(capsys):
    code, _, err = run(capsys, "fiber", "I1")
    assert code == 2 and "irreducible" in err
    code, _, err = run(capsys, "fiber", "V7")
    assert code == 2 and "unrecognized" in err


# ---------------------------------------------------------------------------
# image


def test_image_bundled_type2(capsys):
    code, out, _ = run(capsys, "image", "--bundled", "type2")
    assert code == 0
    assert "n^2 = -phi0(D).phi0(D) / height = 4" in out
    assert "height <P_o, P_o> = 1/2" in out
    assert "fiber inf [I0*]: (2, 2, 2, 3)  ->  class (0, 0)" in out
    assert out.rstrip().endswith("P_D = 2*P_o + 0")


def test_image_bundled_type1(capsys):
    code, out, _ = run(capsys, "image", "--bundled", "type1")
    assert code == 0
    assert "n^2 = -phi0(D).phi0(D) / height = 0" in out
    assert out.rstrip().endswith("P_D = O")


def test_image_eminus_flips_sign(capsys):
    code, out, _ = run(capsys, "image", "--bundled", "fourlines_type2", "--divisor", "E-")
    assert code == 0
    assert out.rstrip().endswith("P_D = -2*P_o + 0")


def test_image_json_deterministic(capsys):
    code, first, _ = run(capsys, "image", "--bundled", "type2", "--json")
    assert code == 0
    code, second, _ = run(capsys, "image", "--bundled", "type2", "--json")
    assert code == 0 and first == second
    doc = json.loads(first)
    assert doc["n"] == 2 and doc["n_squared"] == 4 and doc["sign_determined"] is True
    assert doc["height"] == "1/2" and doc["phi0_self"] == -2
    assert doc["gamma"]["inf"] == {"kind": "I0*", "vector": [2, 2, 2, 3], "class": [0, 0]}
    assert doc["torsion_residual"] == {"classes": [[0, 0], [0], [0], [0]],
                                       "name": "0", "coords": [0, 0]}
    assert doc["point"] == {"free_coeff": 2, "torsion": [0, 0],
                            "torsion_name": None, "str": "2*P_o + 0"}


def test_image_from_config_file(capsys):
    path = DATA / "fourlines_type2.json"
    code, out, _ = run(capsys, "image", "--config", str(path))
    assert code == 0
    assert f"config: file:{path}" in out
    assert out.rstrip().endswith("P_D = 2*P_o + 0")


def test_image_rejects_inconsistent_config(tmp_path, capsys):
    raw = shipped_document("fourlines_type1")
    for div in raw["divisors"]:
        if div["name"] == "E+":
            div["D_squared"] = 2
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, _, err = run(capsys, "image", "--config", str(path))
    assert code == 1
    assert "n^2 = 2 not a perfect square" in err


def test_image_bookkeeping_rejection_exits_1(capsys):
    # D1 = s_o derives; D2 = 2 s_o passes every check up to the height
    # identity, which asks for s(D).O = -1
    config = str(Path(__file__).parent / "configs" / "bookkeeping_seven_i2.json")
    code, out, _ = run(capsys, "image", "--config", config, "--divisor", "D1")
    assert code == 0 and out.splitlines()[-1] == "P_D = 1*P_o + 0"
    code, out, err = run(capsys, "image", "--config", config, "--divisor", "D2")
    assert (code, out) == (1, "") and "height identity gives s(D).O = -1" in err


def test_image_usage_errors(tmp_path, capsys):
    code, _, err = run(capsys, "image", "--bundled", "nope")
    assert code == 2 and "unknown bundled config" in err
    code, _, err = run(capsys, "image", "--config", str(tmp_path / "missing.json"))
    assert code == 2 and "cannot read config" in err
    code, _, err = run(capsys, "image", "--bundled", "type2", "--divisor", "X")
    assert code == 2 and "unknown divisor 'X'" in err and "E+, E-" in err
    code, _, err = run(capsys, "image", "--bundled", "type2", "--generator", "q")
    assert code == 2 and "unknown generator section" in err
    code, _, err = run(capsys, "image")
    assert code == 2  # argparse: --config/--bundled required


def test_image_with_two_sections_needs_a_generator(tmp_path, capsys):
    # s2 = s_o + t1 is a section of the surface, so the table builds
    config = Path(__file__).parent / "configs" / "fourlines_torsion.json"
    raw = json.loads(config.read_text("utf-8"))
    raw["surface"]["sections"].append(
        {"name": "s2", "s_dot_O": 0, "components": {"1": 1, "2": 1, "3": 1}}
    )
    path = tmp_path / "two_sections.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    code, out, err = run(capsys, "image", "--config", str(path), "--divisor", "T3")
    assert (code, out) == (2, "")
    assert err == "error: pass --generator to pick a section (candidates: s_o, s2)\n"
    code, out, _ = run(capsys, "image", "--config", str(path), "--divisor", "T3",
                       "--generator", "s_o")
    assert code == 0 and out.startswith(f"config: file:{path}")


# whole files that fail before any field is read (path None: value is the bytes)
UNDECODABLE_CASES = [
    pytest.param(None, b'{"schema_version": ' + b"9" * 5000 + b"}", "too many digits",
                 id="5000-digit-integer"),
    pytest.param(None, b"\xff\xfe" + '{"surface": 1}'.encode("utf-16-le"), "not UTF-8",
                 id="utf-16-bom"),
    pytest.param(None, b"[" * 100_000, "nested too deeply", id="100000-nested-arrays"),
]


@pytest.mark.parametrize("path, value, message", SCHEMA_CASES + UNDECODABLE_CASES)
def test_image_schema_errors_exit_2(tmp_path, capsys, path, value, message):
    config = tmp_path / "bad.json"
    if path is None:
        config.write_bytes(value)
    else:
        raw = with_value(shipped_document("fourlines_type2"), path, value)
        config.write_text(json.dumps(raw), encoding="utf-8")
    code, _, err = run(capsys, "image", "--config", str(config))
    assert code == 2 and re.search(message, err) and "Traceback" not in err


def test_image_bad_json_config(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json", encoding="utf-8")
    code, _, err = run(capsys, "image", "--config", str(path))
    assert code == 2 and "invalid JSON" in err


# ---------------------------------------------------------------------------
# cover


def test_cover_single_n(capsys):
    code, out, _ = run(capsys, "cover", "--type", "I", "--n", "9")
    assert code == 0
    assert "Type I, n = 9: dihedral cover of order 18 EXISTS" in out
    code, out, _ = run(capsys, "cover", "--type", "II", "--n", "6")
    assert code == 0
    assert "order 12 does not exist" in out
    assert "no point X satisfies 6*X = 4*P_o + 0" in out


def test_cover_sweep_json(capsys):
    code, out, _ = run(capsys, "cover", "--type", "II", "--sweep", "3..12", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["arrangement_type"] == "II" and doc["sweep"] == [3, 12]
    assert doc["exists_for"] == [4]
    by_n = {r["n"]: r for r in doc["results"]}
    assert len(by_n) == 10 and by_n[4]["exists"] is True
    assert by_n[4]["witness"] == "1*P_o + 0" and by_n[5]["witness"] is None
    assert any("4*P_o" in reason for reason in by_n[4]["reasons"])


def test_cover_sweep_text_summary(capsys):
    code, out, _ = run(capsys, "cover", "--type", "I", "--sweep", "3..5")
    assert code == 0
    assert "summary: covers exist for n in {3, 4, 5}  (sweep 3..5)" in out


def test_cover_usage_errors(capsys):
    code, _, err = run(capsys, "cover", "--type", "II", "--n", "2")
    assert code == 2 and "n >= 3" in err
    code, _, err = run(capsys, "cover", "--type", "III", "--n", "4")
    assert code == 2 and "unknown arrangement type" in err
    code, _, err = run(capsys, "cover", "--type", "II", "--sweep", "9..3")
    assert code == 2 and "range is empty" in err
    code, _, err = run(capsys, "cover", "--type", "II", "--sweep", "3-9")
    assert code == 2 and "range like 3..12" in err
    code, _, err = run(capsys, "cover", "--type", "II")
    assert code == 2  # argparse: --n/--sweep required


def test_cover_sweep_over_cap_is_usage_error(capsys, monkeypatch):
    calls = []
    decide = cli.d2n_cover_exists
    monkeypatch.setattr(cli, "d2n_cover_exists", lambda *a: calls.append(a) or decide(*a))
    code, out, err = run(capsys, "cover", "--type", "II", "--sweep", f"3..{10**12}")
    assert code == 2 and out == "" and "MAX_SWEEP = 10000" in err
    assert calls == []
    # the boundary, on a cap lowered so the accepted sweep stays cheap
    monkeypatch.setattr(cli, "MAX_SWEEP", 5)
    code, _, err = run(capsys, "cover", "--type", "I", "--sweep", "3..8")
    assert code == 2 and "has 6 values" in err and calls == []
    code, out, _ = run(capsys, "cover", "--type", "I", "--sweep", "3..7", "--json")
    assert code == 0 and len(calls) == 5 and json.loads(out)["sweep"] == [3, 7]


# ---------------------------------------------------------------------------
# arrangement


def test_arrangement_sign_plus(capsys):
    code, out, _ = run(capsys, "arrangement", "--s1", "2", "--s2", "3", "--sign", "+")
    assert code == 0
    assert "tangency parameters t(q_i): 2, 3, -7/5" in out
    assert "type: Type I  (tangency points collinear)" in out
    assert out.rstrip().endswith("P = O")


def test_arrangement_sign_minus(capsys):
    code, out, _ = run(capsys, "arrangement", "--s1", "2", "--s2", "3", "--sign=-")
    assert code == 0
    assert "tangency parameters t(q_i): 2, 3, -5/7" in out
    assert "type: Type II  (tangency points not collinear)" in out
    assert out.rstrip().endswith("P = 2*P_o + 0")


def test_arrangement_json(capsys):
    code, out, _ = run(capsys, "arrangement", "--s1", "2", "--s2", "3", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["type"] == "I" and doc["collinear_tangencies"] is True
    assert doc["requested"] == {"s1": 2, "s2": 3, "sign": 1, "seed": None}
    assert doc["arrangement"]["q_params"] == ["2", "3", "-7/5"]
    assert doc["image"]["str"] == "O" and doc["image"]["free_coeff"] == 0
    assert set(doc["arrangement"]["lines"]) == {"L0", "L1", "L2", "L3"}
    assert set(doc["arrangement"]["corners"]) == {"p12", "p13", "p23"}


def test_arrangement_random_reproducible(capsys):
    code, first, _ = run(capsys, "arrangement", "--random", "11", "--json")
    assert code == 0
    code, second, _ = run(capsys, "arrangement", "--random", "11", "--json")
    assert code == 0 and first == second
    doc = json.loads(first)
    assert doc["requested"]["seed"] == 11
    assert doc["image"]["str"] in ("O", "2*P_o + 0")
    assert (doc["image"]["str"] == "O") == (doc["type"] == "I")


def test_arrangement_random_gives_up_after_max_draws(capsys, monkeypatch):
    draws = []

    def degenerate(s1, s2, sign):
        draws.append((s1, s2, sign))
        raise DegenerateArrangementError("t = 1 hits the node of the cubic")

    monkeypatch.setattr(cli, "generate_arrangement", degenerate)
    code, out, err = run(capsys, "arrangement", "--random", "5")
    assert code == 1 and out == ""
    assert "--random 5" in err and f"MAX_DRAWS = {cli.MAX_DRAWS}" in err
    assert len(draws) == cli.MAX_DRAWS


def test_arrangement_rational_args(capsys):
    code, out, _ = run(capsys, "arrangement", "--s1=-10/3", "--s2=-5/11", "--json")
    assert code == 0
    assert json.loads(out)["requested"]["s1"] == "-10/3"


def test_huge_rationals_are_usage_errors(capsys):
    # these used to end in a ValueError traceback from int-to-str conversion
    for s1 in ("1e800", "7" * 500 + "/" + "3" * 500, "3/0"):
        code, out, err = run(capsys, "arrangement", f"--s1={s1}", "--s2=3")
        assert code == 2 and out == "" and "--s1" in err and "Traceback" not in err
    for argv in (("cover", "--type", "I", "--n", "9" * 4300),
                 ("cover", "--type", "I", f"--sweep=-5..{'9' * 4300}"),
                 ("arrangement", "--random", "9" * 4300)):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "MAX_DIGITS" in err


@pytest.mark.parametrize("limit", [None, 640])
def test_inputs_at_the_digit_bound_reach_the_mathematics(tmp_path, capsys, limit):
    # also under the lowest int-to-str limit CPython accepts (PYTHONINTMAXSTRDIGITS=640)
    default = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit or default)
    try:
        check_inputs_at_the_digit_bound(tmp_path, capsys)
    finally:
        sys.set_int_max_str_digits(default)


def check_inputs_at_the_digit_bound(tmp_path, capsys):
    big = "9" * MAX_DIGITS
    near = big[:-1] + "8"
    for s1, s2 in ((f"-{big}/{near}", f"{big}/7"), (f"-{big}/7", f"{near}/{big}"),
                   (big, f"-{near}/{big}")):
        for sign, kind in (("+", "I"), ("-", "II")):
            code, out, _ = run(capsys, "arrangement", f"--s1={s1}", f"--s2={s2}",
                               f"--sign={sign}", "--json")
            assert code == 0 and json.loads(out)["type"] == kind
    fields = [("surface", "chi"), ("surface", "sections", 0, "s_dot_O")] + [
        ("divisors", 0, key) for key in ("d", "D_dot_O", "D_squared")
    ] + [("divisors", 0, "D_dot_section", "s_o"), ("divisors", 0, "D_dot_divisor", "E-"),
         ("divisors", 0, "c", "inf", 0), ("divisors", 0, "c", "1", 0)]
    raw = shipped_document("fourlines_type2")
    # each field alone at the bound, then all of them at once
    for chosen in [[path] for path in fields] + [fields]:
        doc = json.loads(json.dumps(raw))
        for path in chosen:
            with_value(doc, path, int(big))
        config = tmp_path / "big.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        for argv in (["image", "--config", str(config)], ["image", "--config", str(config),
                                                          "--json"]):
            code, _, err = run(capsys, *argv)
            assert code in (0, 1) and "Traceback" not in err, (chosen, err)


def test_arrangement_usage_errors(capsys):
    code, _, err = run(capsys, "arrangement", "--s1", "1", "--s2", "3")
    assert code == 2 and "node" in err
    code, _, err = run(capsys, "arrangement", "--s1", "2")
    assert code == 2 and "--s2" in err
    code, _, err = run(capsys, "arrangement", "--random", "3", "--s1", "2")
    assert code == 2 and "--random replaces" in err
    code, _, err = run(capsys, "arrangement", "--s1", "x", "--s2", "3")
    assert code == 2 and "exact rational" in err
    code, _, err = run(capsys, "arrangement", "--s1", "2", "--s2", "3", "--sign", "0")
    assert code == 2 and "--sign expects" in err


# ---------------------------------------------------------------------------
# demo


def test_demo_all_pass(capsys):
    code, out, _ = run(capsys, "demo")
    assert code == 0
    assert out.count("PASS") == 11 and "FAIL" not in out
    assert "all 11 checks passed" in out
    assert "P_(E+) = 2*P_o + 0" in out
    assert "type II only n = 4" in out


def test_demo_json(capsys):
    code, out, _ = run(capsys, "demo", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] is True and doc["failures"] == 0 and doc["total"] == 11
    assert all(c["status"] == "PASS" for c in doc["checks"])


def test_demo_flags_corrupted_bundle(capsys, monkeypatch):
    # every bundled table yields the type1 data, and the demo, the cover
    # decisions and the arrangement images all read the one derivation on
    # it: the type2 image, the type II cover table and the sign -1
    # arrangement fail.  The noncollinear relation is then derived on the
    # same data and holds.
    type1 = fourlines.bundled_table("collinear")
    for module in (cli, fourlines):
        monkeypatch.setattr(module, "bundled_table", lambda variant: type1)
    caches = (fourlines.bundled_derivation, fourlines.ns_relation, dihedral._cover_points)
    for cache in caches:
        cache.cache_clear()
    try:
        code, out, _ = run(capsys, "demo")
    finally:
        for cache in caches:
            cache.cache_clear()
    assert code == 1
    failing = [line.split(":")[0] for line in out.splitlines() if line.startswith("FAIL")]
    assert failing == [
        "FAIL  bundled type2 image", "FAIL  dihedral cover table", "FAIL  arrangement pipeline"
    ]
    assert "8/11 checks passed" in out


@pytest.mark.parametrize("index", range(len(cli._DEMO_CHECKS)))
def test_demo_reports_a_golden_mismatch(capsys, monkeypatch, index):
    # an object() golden equals nothing the check can observe
    checks = list(cli._DEMO_CHECKS)
    name, observe, _, detail = checks[index]
    checks[index] = (name, observe, object(), detail)
    monkeypatch.setattr(cli, "_DEMO_CHECKS", checks)
    code, out, _ = run(capsys, "demo")
    assert code == 1
    failing = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert len(failing) == 1
    assert failing[0].startswith(f"FAIL  {name}: got ") and "expected" in failing[0]
    assert "10/11 checks passed" in out
    code, out, _ = run(capsys, "demo", "--json")
    assert code == 1 and json.loads(out)["failures"] == 1


def test_demo_flags_broken_math(capsys, monkeypatch):
    # the demo's cover check observes the two spectra and decides no single n
    calls = []
    monkeypatch.setattr(cli, "cover_spectrum",
                        lambda atype: (_ for _ in ()).throw(RuntimeError("solver down")))
    monkeypatch.setattr(cli, "d2n_cover_exists", lambda *a: calls.append(a))
    code, out, _ = run(capsys, "demo")
    assert code == 1
    assert any(line.startswith("FAIL") and "dihedral cover table" in line
               and "solver down" in line for line in out.splitlines())
    assert calls == []


# ---------------------------------------------------------------------------
# the JSON writer

# strings lean on what the quoter escapes: quotes, backslashes, control
# characters, non-ASCII and lone surrogates
_text = st.text(st.one_of(st.sampled_from('"\\/\x00\x1f\x7f\u2028\ud800\udfffé'),
                          st.characters(exclude_categories=())))
_scalars = st.one_of(
    st.none(), st.booleans(), _text, st.integers(),
    st.integers(min_value=2**64, max_value=2**300), st.integers(max_value=-2**64),
)
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(st.lists(inner), st.lists(inner).map(tuple),
                            st.dictionaries(_text, inner)),
    max_leaves=30,
)


@given(_values)
def test_json_writer_matches_the_stdlib(value):
    assert cli._dumps(value) == json.dumps(value, indent=2, sort_keys=True)


@pytest.mark.parametrize("value", [
    0.5, Fraction(1, 2), {1: "a"}, {"a": [1, {"b": 1.0}]}, [(Fraction(3),)], {None: 1},
])
def test_json_writer_refuses_what_json_would_coerce(value):
    # a float or Fraction never reaches stdout, and no key is coerced to str
    with pytest.raises(TypeError):
        cli._dumps(value)


# ---------------------------------------------------------------------------
# dispatch plumbing


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 2 and "usage" in err


def test_help_exits_zero(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0 and "fiber" in out and "demo" in out


def test_unknown_subcommand(capsys):
    code, _, err = run(capsys, "frobnicate")
    assert code == 2 and "invalid choice" in err


def test_parser_built_once_per_process(tmp_path, capsys, monkeypatch):
    raw = shipped_document("fourlines_type1")
    for div in raw["divisors"]:
        if div["name"] == "E+":
            div["D_squared"] = 2
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(raw), encoding="utf-8")
    argvs = [
        ["fiber", "I0*"],
        ["image", "--config", str(bad)],                              # exit 1
        ["cover", "--type", "I", "--n", "4", "--sweep", "3..5"],      # exit 2
        ["--help"],
        ["image", "--bundled", "type2", "--json"],
        ["cover", "--n", "4"],                                        # exit 2
        ["fiber", "I1"],                                              # exit 2
        ["cover", "--help"],
        ["cover", "--type", "II", "--sweep", "3..12"],
        ["arrangement", "--random", "11", "--json"],
        ["frobnicate"],                                               # exit 2
    ]
    first = {}
    for argv in argvs:
        cli.build_parser.cache_clear()
        first[tuple(argv)] = run(capsys, *argv)
    assert {res[0] for res in first.values()} == {0, 1, 2}

    progs = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        progs.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli.build_parser.cache_clear()
    for argv in argvs:
        assert run(capsys, *argv) == first[tuple(argv)], argv
    # one top-level parser and one per subcommand, all from a single build
    assert sorted(progs) == sorted(
        ["ajimage"] + [f"ajimage {c}" for c in ("fiber", "image", "cover", "arrangement", "demo")]
    )


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ajimage", "fiber", "I2", "--json"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    doc = json.loads(proc.stdout)
    assert doc["a"] == [[-2]] and doc["component_group"] == [2]


def test_round_trip_of_emitted_config(tmp_path):
    # a document in the shipped files' canonical form parses back identically
    doc = bundled_config("fourlines_type2")
    assert loads_config(dumps_config(doc)) == doc


# ---------------------------------------------------------------------------
# golden stdout and the one-derivation contract

# stdout and exit code of each argument list, matched byte for byte.
# `image --config` paths are relative to the checkout root, and the source
# line prints them as given.
CHECKOUT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((CHECKOUT / "tests" / "golden_stdout.json").read_text("utf-8"))


@pytest.mark.parametrize("case", GOLDEN["render"], ids=lambda c: " ".join(c["argv"]))
def test_stdout_matches_golden(capsys, monkeypatch, case):
    monkeypatch.chdir(CHECKOUT)
    code, out, err = run(capsys, *case["argv"])
    assert code == case["exit"]
    assert out == case["stdout"]
    # a rejection is one "error: " line, and a success writes nothing there
    if code == 0:
        assert err == ""
    else:
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")


def test_image_solves_once(capsys, monkeypatch):
    # one A^-1 c product, for the one fiber where c(v, E+) is nonzero
    solved = []
    solves = mwgroup._solves

    def counting(table, d):
        solved.append(solves(table, d))
        return solved[-1]

    monkeypatch.setattr(mwgroup, "_solves", counting)
    code, _, _ = run(capsys, "image", "--bundled", "type2", "--json")
    assert code == 0 and [list(xs) for xs in solved] == [["inf"]]


def test_fiber_over_size_cap_is_usage_error(capsys):
    code, _, err = run(capsys, "fiber", "I100000")
    assert code == 2 and "MAX_COMPONENTS" in err
    # past int's string-conversion limit the message still names the index
    code, _, err = run(capsys, "fiber", "I" + "7" * 5000 + "*")
    assert code == 2 and "fiber index n of I*_n has 5000 digits" in err
    assert "Exceeds the limit" not in err


def test_huge_chi_config_capped_before_any_catalog(tmp_path, capsys):
    # chi = 1000 lets a lone I9997 fiber through both the Euler and rank bounds
    raw = shipped_document("fourlines_type2")
    raw["surface"]["chi"] = 1000
    raw["surface"]["fibers"] = [{"id": "big", "kind": "I9997"}]
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(raw), encoding="utf-8")
    start = time.perf_counter()
    code, _, err = run(capsys, "image", "--config", str(path))
    assert code == 2 and "9997 components in all" in err and "MAX_COMPONENTS" in err
    assert time.perf_counter() - start < 0.5
