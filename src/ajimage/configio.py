"""JSON surface-configuration documents.

Schema, version 1::

    {
      "schema_version": 1,
      "surface": {
        "chi": <int>,
        "fibers": [{"id": <str>, "kind": <str, e.g. "I0*" or "I2">}, ...],
        "mw_free_rank": <int>,
        "sections": [
          {"name": <str>, "s_dot_O": <int>, "components": {<fiber id>: <int>}},
          ...
        ],
        "torsion_group": [<invariant factors, ints > 1>],          # optional
        "torsion_table": [                                          # optional
          {"name": <str>, "components": {...}, "coords": [<int>, ...]},
          ...
        ]
      },
      "divisors": [
        {
          "name": <str>, "d": <int>, "D_dot_O": <int>,
          "c": {<fiber id>: [<ints, one per non-identity component>]},
          "D_squared": <int>,                                       # optional
          "D_dot_section": {<section name>: <int>},                 # optional
          "D_dot_divisor": {<divisor name>: <int>}                  # optional
        },
        ...
      ]
    }

Numbers are JSON integers or exact strings "p" / "p/q" (optional sign,
decimal digits only); floats and booleans are rejected outright so no value
ever passes through binary floating point, and no integer, numerator or
denominator may have more than MAX_DIGITS digits.  Only this syntax is read
here; plain ints go on to build_table, which reads every number through
`exact.exact_int` as it does a Python caller's.  Unknown
keys are rejected at every level: a typo fails loudly instead of being
ignored.  Two documents ship with the package (data/fourlines_type1.json
and data/fourlines_type2.json), carrying the bundled four-line surface
with the collinear resp. non-collinear splitting-curve profiles; they are
the one source of that surface (see fourlines).

This module reads documents and never writes one.  The shipped documents
are kept as canonical JSON (sorted keys, two-space indent, one final
newline), and a new document starts as a copy of one of them.
"""

from __future__ import annotations

import json
import re
import reprlib
from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from importlib import resources

from .errors import SchemaError
from .exact import exact_number
from .kodaira import AbelianGroup, FiberKind
from .nslattice import DivisorProfile, SectionProfile, SurfaceConfig, TorsionSectionSpec

SCHEMA_VERSION = 1

BUNDLED = ("fourlines_type1", "fourlines_type2")

# Most decimal digits an input integer, numerator or denominator may have.
# The largest outputs (an arrangement's residual points) have up to about
# nine times as many digits as their inputs, which keeps every rendered
# number under CPython's int-to-str limit even at its lowest setting, 640
# digits (the default is 4300); longer inputs are rejected before any
# arithmetic.
MAX_DIGITS = 60
_INT_BOUND = 10**MAX_DIGITS
_RATIONAL = re.compile(r"([+-]?)0*([0-9]+)(?:/0*([0-9]+))?")


def parse_rational(value, where: str) -> Fraction:
    """An integer or an exact string "p" or "p/q", within MAX_DIGITS digits."""
    if isinstance(value, bool):
        raise SchemaError(f"{where}: expected a number, got a boolean")
    if isinstance(value, int):
        if -_INT_BOUND < value < _INT_BOUND:
            return Fraction(value)
        raise SchemaError(f"{where}: integer has more than MAX_DIGITS = {MAX_DIGITS} digits")
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match is None:
            raise SchemaError(f"{where}: {reprlib.repr(value)} is not an exact rational 'p/q'")
        sign, num, den = match.groups()
        if len(num) > MAX_DIGITS or len(den or "") > MAX_DIGITS:
            raise SchemaError(
                f"{where}: {reprlib.repr(value)} has more than MAX_DIGITS = {MAX_DIGITS} digits"
            )
        if den == "0":
            raise SchemaError(f"{where}: {reprlib.repr(value)} has a zero denominator")
        return Fraction(int(sign + num), int(den or 1))
    if isinstance(value, float):
        raise SchemaError(
            f"{where}: floats are not accepted; write the exact rational as a string 'p/q'"
        )
    raise SchemaError(f"{where}: expected integer or 'p/q' string, got {type(value).__name__}")


def parse_int(value, where: str) -> int:
    if type(value) is int and -_INT_BOUND < value < _INT_BOUND:  # not a bool
        return value
    q = parse_rational(value, where)
    if q.denominator != 1:
        raise SchemaError(f"{where}: expected an integer, got {q}")
    return int(q)


def render_number(value) -> "int | str":
    """An exact number as JSON: an int when integral, else "p/q"."""
    q = exact_number(value, "render_number")
    return q if type(q) is int else str(q)


def _check_keys(doc: Mapping, where: str, required: tuple[str, ...], optional: tuple[str, ...] = ()):
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{where}: expected an object")
    unknown = set(doc).difference(required, optional)
    if unknown:
        raise SchemaError(f"{where}: unknown keys {sorted(unknown)}")
    missing = set(required).difference(doc)
    if missing:
        raise SchemaError(f"{where}: missing required keys {sorted(missing)}")


def _int_map(doc, where: str) -> dict[str, int]:
    if not isinstance(doc, Mapping):
        raise SchemaError(f"{where}: expected an object of integers")
    return {
        str(k): v if type(v) is int and -_INT_BOUND < v < _INT_BOUND
        else parse_int(v, f"{where}[{k!r}]")
        for k, v in doc.items()
    }


def _int_tuple(values: list, where: str) -> tuple[int, ...]:
    # the location of an entry is formatted only when the entry is not an
    # int within MAX_DIGITS digits
    return tuple(
        v if type(v) is int and -_INT_BOUND < v < _INT_BOUND else parse_int(v, f"{where}[{j}]")
        for j, v in enumerate(values)
    )


def _list(value, where: str) -> list:
    if not isinstance(value, list):
        raise SchemaError(f"{where}: expected a list")
    return value


def _str_field(doc, key, where) -> str:
    val = doc[key]
    if not isinstance(val, str) or not val:
        raise SchemaError(f"{where}: {key!r} must be a nonempty string")
    return val


def surface_from_dict(doc: Mapping) -> SurfaceConfig:
    _check_keys(doc, "surface", ("chi", "fibers", "mw_free_rank", "sections"),
                ("torsion_group", "torsion_table"))
    fibers = []
    for i, f in enumerate(_list(doc["fibers"], "surface.fibers")):
        where = f"surface.fibers[{i}]"
        _check_keys(f, where, ("id", "kind"))
        try:
            kind = FiberKind.parse(_str_field(f, "kind", where))
        except ValueError as exc:
            raise SchemaError(f"{where}: {exc}") from None
        fibers.append((_str_field(f, "id", where), kind))
    sections = []
    for i, s in enumerate(_list(doc["sections"], "surface.sections")):
        where = f"surface.sections[{i}]"
        _check_keys(s, where, ("name", "s_dot_O", "components"))
        sections.append(
            SectionProfile(
                _str_field(s, "name", where),
                parse_int(s["s_dot_O"], f"{where}.s_dot_O"),
                _int_map(s["components"], f"{where}.components"),
            )
        )
    factors = _int_tuple(
        _list(doc.get("torsion_group", []), "surface.torsion_group"), "surface.torsion_group"
    )
    try:
        group = AbelianGroup(factors)
    except ValueError as exc:
        raise SchemaError(f"surface.torsion_group: {exc}") from None
    torsion = []
    for i, t in enumerate(_list(doc.get("torsion_table", []), "surface.torsion_table")):
        where = f"surface.torsion_table[{i}]"
        _check_keys(t, where, ("name", "components", "coords"))
        torsion.append(
            TorsionSectionSpec(
                _str_field(t, "name", where),
                _int_map(t["components"], f"{where}.components"),
                _int_tuple(_list(t["coords"], f"{where}.coords"), f"{where}.coords"),
            )
        )
    rank = parse_int(doc["mw_free_rank"], "surface.mw_free_rank")
    if rank < 0:
        raise SchemaError(f"surface.mw_free_rank: must be >= 0, got {rank}")
    return SurfaceConfig(
        chi=parse_int(doc["chi"], "surface.chi"),
        fibers=tuple(fibers),
        sections=tuple(sections),
        mw_free_rank=rank,
        torsion_group=group,
        torsion_table=tuple(torsion),
    )


def divisor_from_dict(doc: Mapping) -> DivisorProfile:
    name = _str_field(doc, "name", "divisor") if isinstance(doc, Mapping) and "name" in doc else "?"
    where = f"divisor {name!r}"
    _check_keys(doc, where, ("name", "d", "D_dot_O", "c"),
                ("D_squared", "D_dot_section", "D_dot_divisor"))
    if not isinstance(doc["c"], Mapping):
        raise SchemaError(f"{where}.c: expected an object of integer lists")
    c = {}
    for fid, vec in doc["c"].items():
        if not isinstance(vec, list):
            raise SchemaError(f"{where}.c[{fid!r}]: expected a list of integers")
        c[str(fid)] = _int_tuple(vec, f"{where}.c[{fid!r}]")
    d_squared = doc.get("D_squared")
    return DivisorProfile(
        name=name,
        d=parse_int(doc["d"], f"{where}.d"),
        d_dot_o=parse_int(doc["D_dot_O"], f"{where}.D_dot_O"),
        c=c,
        d_squared=None if d_squared is None else parse_int(d_squared, f"{where}.D_squared"),
        d_dot_section=_int_map(doc.get("D_dot_section", {}), f"{where}.D_dot_section"),
        d_dot_divisor=_int_map(doc.get("D_dot_divisor", {}), f"{where}.D_dot_divisor"),
    )


@dataclass(frozen=True)
class ConfigDocument:
    surface: SurfaceConfig
    divisors: tuple[DivisorProfile, ...]


def parse_config(doc: Mapping) -> ConfigDocument:
    _check_keys(doc, "config", ("schema_version", "surface"), ("divisors",))
    version = parse_int(doc["schema_version"], "schema_version")
    if version != SCHEMA_VERSION:
        raise SchemaError(f"unsupported schema_version {version}; this build reads {SCHEMA_VERSION}")
    divisors = _list(doc.get("divisors", []), "divisors")
    return ConfigDocument(
        surface=surface_from_dict(doc["surface"]),
        divisors=tuple(divisor_from_dict(d) for d in divisors),
    )


def loads_config(text: str) -> ConfigDocument:
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"invalid JSON: {exc}") from None
    except ValueError:  # an integer literal past int's string-conversion limit
        raise SchemaError("invalid JSON: an integer literal has too many digits") from None
    except RecursionError:
        raise SchemaError("invalid JSON: arrays or objects nested too deeply") from None
    return parse_config(doc)


def load_config(path) -> ConfigDocument:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise SchemaError(f"config {path} is not UTF-8 text: {exc.reason}") from None
    return loads_config(text)


@cache
def bundled_config(name: str) -> ConfigDocument:
    """One of the shipped documents, by stem name (see BUNDLED), parsed once
    per process; callers share the result and must not mutate it."""
    if name not in BUNDLED:
        raise SchemaError(f"no bundled config {name!r}; available: {', '.join(BUNDLED)}")
    text = (resources.files(__package__) / "data" / f"{name}.json").read_text("utf-8")
    return loads_config(text)
