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


# Schema-shaped documents drawn from scratch.  The kinds are mostly small
# reducible ones (with the width of their c-vectors), sometimes irreducible
# or past the size cap; sections, torsion tables and divisors refer to the
# drawn fibers, so many documents reach the mathematics.  Then up to two
# edits drop a key, add an unknown one or plant an odd value.
WIDTHS = {"I2": 1, "I3": 2, "I4": 3, "III": 1, "IV": 2, "I0*": 4, "I1*": 5, "IV*": 6,
          "III*": 7, "II*": 8}
KINDS = sorted(WIDTHS) * 3 + ["I0", "II", "I300", "I260*"]


@st.composite
def documents(draw):
    small = st.integers(-1, 3)
    ids = ["inf", "1", "2", "3"][: draw(st.integers(0, 4))]
    kinds = [draw(st.sampled_from(KINDS)) for _ in ids]

    def components():
        return {fid: draw(st.integers(0, 1)) for fid in ids if draw(st.booleans())}

    surface = {
        "chi": draw(st.sampled_from([1, 1, 2, 0, 26])),
        "fibers": [{"id": fid, "kind": kind} for fid, kind in zip(ids, kinds)],
        "mw_free_rank": draw(st.integers(0, 2)),
        "sections": [{"name": "s_o", "s_dot_O": draw(small), "components": components()}],
    }
    if draw(st.booleans()):
        group = draw(st.lists(st.sampled_from([2, 2, 3, 4, 1]), max_size=2))
        surface["torsion_group"] = group
        surface["torsion_table"] = [
            {"name": f"t{j}", "components": components(),
             "coords": draw(st.lists(st.integers(0, 3), min_size=len(group), max_size=len(group)))}
            for j in range(draw(st.integers(0, 3)))
        ]
    divisors = []
    for name in draw(st.lists(st.sampled_from(["E+", "E-", "O"]), max_size=2, unique=True)):
        width = dict(zip(ids, (WIDTHS.get(kind, 1) for kind in kinds)))
        divisor = {"name": name, "d": draw(small), "D_dot_O": draw(small),
                   "c": {fid: draw(st.lists(small, min_size=width[fid], max_size=width[fid]))
                         for fid in ids if draw(st.booleans())}}
        if draw(st.booleans()):
            divisor["D_squared"] = draw(st.integers(-4, 4))
        if draw(st.booleans()):
            divisor["D_dot_section"] = {"s_o": draw(small)}
        divisors.append(divisor)
    return {"schema_version": 1, "surface": surface, "divisors": divisors}


EDITS = st.lists(st.tuples(st.integers(0, 10**6), st.sampled_from(["drop", "extra", "odd"]),
                           st.sampled_from(["1/2", "2/0", "1e9", True, 1.5, None, [], {}, -7])),
                 max_size=2)


@settings(max_examples=100, deadline=None)
@given(documents(), EDITS, st.sampled_from(["E+", "E-"]), st.booleans())
def test_any_drawn_config_exits_0_1_or_2(doc, edits, divisor, as_json):
    for where, action, value in edits:
        paths = list(document_paths(doc))
        path = paths[where % len(paths)]
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        if action == "extra" and isinstance(parent, dict):
            parent["extra"] = value
        elif action == "drop" and path and isinstance(parent, dict):
            del parent[path[-1]]
        elif action == "odd" and path:
            parent[path[-1]] = value
    with tempfile.TemporaryDirectory() as tmp:
        config = Path(tmp) / "drawn.json"
        config.write_text(json.dumps(doc), encoding="utf-8")
        code, err = run_main(["image", "--config", str(config), "--divisor", divisor]
                             + ["--json"] * as_json)
    assert code in (0, 1, 2) and "Traceback" not in err, (doc, err[-300:])
