"""Fuzz properties of the command line.

Whatever the argv or the config document, `cli.main` ends with one of the
three documented exit codes (0 success, 1 rejected by the mathematics, 2
usage or schema error) and prints no traceback.  The values mix plausible
inputs with the shapes that used to escape: exponent strings, digit runs
past CPython's int/str conversion limit, and zero denominators.
"""

import contextlib
import io
import json
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from ajimage import cli
from ajimage.configio import bundled_config, dumps_config

DIGIT_RUNS = st.integers(1, 5000).map(lambda n: "9" * n)
NUMBER_TEXT = st.one_of(
    st.integers(-20, 60).map(str),
    st.sampled_from(["1e800", "1e5000", "-2E10", "1.5", "0x10", " 3", "3/0", "0/0", "+7", "-7/5"]),
    DIGIT_RUNS,
    st.builds(lambda sign, p, q: f"{sign}{p}/{q}", st.sampled_from(["", "-"]), DIGIT_RUNS,
              st.one_of(DIGIT_RUNS, st.just("0"))),
    st.text(max_size=8),
)


def flag(name, values):
    return st.lists(values.map(lambda v: f"--{name}={v}"), max_size=1)


ARGVS = st.one_of(
    st.tuples(st.just(["fiber"]), st.lists(
        st.one_of(st.sampled_from(["I0*", "I2", "IV*", "II*", "I1"]), NUMBER_TEXT.map("I{}".format),
                  NUMBER_TEXT.map("I{}*".format)), min_size=1, max_size=1)),
    st.tuples(st.just(["image"]), flag("bundled", st.sampled_from(["type1", "type2", "x"])),
              flag("divisor", st.sampled_from(["E+", "E-", "O", "x"])),
              flag("generator", st.sampled_from(["s_o", "t1", "x"]))),
    st.tuples(st.just(["cover"]), flag("type", st.sampled_from(["I", "II", "III"])),
              flag("n", NUMBER_TEXT),
              flag("sweep", st.builds("{}..{}".format, NUMBER_TEXT, NUMBER_TEXT))),
    st.tuples(st.just(["arrangement"]), flag("s1", NUMBER_TEXT), flag("s2", NUMBER_TEXT),
              flag("sign", st.sampled_from(["+", "-", "+1", "0"])), flag("random", NUMBER_TEXT)),
    st.tuples(st.just(["demo"])),
).map(lambda parts: [arg for part in parts for arg in part])


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


@settings(max_examples=150, deadline=None)
@given(ARGVS, st.booleans())
def test_any_argv_exits_0_1_or_2(argv, as_json):
    code, err = run_main(argv + ["--json"] * as_json)
    assert code in (0, 1, 2) and "Traceback" not in err, (argv, err[-300:])


BUNDLED_DOC = json.loads(dumps_config(bundled_config("fourlines_type2")))


def document_paths(node, path=()):
    """Every path into the document: its objects, lists and leaves."""
    yield path
    if isinstance(node, (dict, list)):
        for key, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from document_paths(child, path + (key,))


PATHS = list(document_paths(BUNDLED_DOC))[1:]
JSON_VALUES = st.one_of(
    NUMBER_TEXT,
    st.integers(-(10**6), 10**6),
    st.integers(1, 4000).map(lambda n: int("9" * n)),
    st.floats(allow_nan=False),
    st.sampled_from([None, True, [], {}, [1, "x"], {"x": 1}]),
)


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(PATHS), JSON_VALUES), min_size=1, max_size=3))
def test_any_mutated_config_exits_0_1_or_2(mutations):
    doc = json.loads(json.dumps(BUNDLED_DOC))
    for path, value in mutations:
        target = doc
        try:
            for key in path[:-1]:
                target = target[key]
            target[path[-1]] = value
        except (KeyError, IndexError, TypeError):  # an earlier mutation replaced the parent
            continue
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "mutated.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        code, err = run_main(["image", "--config", str(config)])
    assert code in (0, 1, 2) and "Traceback" not in err, (mutations, err[-300:])
