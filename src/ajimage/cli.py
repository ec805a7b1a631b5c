"""Command-line front end.

Subcommands
-----------
fiber KIND            intersection data of one reducible Kodaira fiber
image                 Abel-Jacobi decomposition of a configured divisor class
cover                 dihedral-cover existence decisions
arrangement           build a nodal-cubic + four-line arrangement and push it
                      through the whole pipeline
demo                  reproduce every golden value end to end (PASS/FAIL lines)

Every subcommand takes ``--json`` for a machine-readable report; JSON output
is rendered with sorted keys so identical inputs give byte-identical bytes.

Exit codes: 0 success, 1 inconsistent or impossible input data (the math
rejected it), 2 usage or schema errors (the request never reached the math).
"""

from __future__ import annotations

import argparse
import random
import sys
from dataclasses import replace
from fractions import Fraction
from functools import cache
from json.encoder import encode_basestring_ascii

from .arrangement import classify_type, generate_arrangement, image_of
from .configio import (
    BUNDLED,
    load_config,
    parse_int,
    parse_rational,
    render_number,
)
from .dihedral import (
    ArrangementType,
    CoverSpectrum,
    RelationStatus,
    cover_spectrum,
    d2n_cover_exists,
    verify_ns_relation,
)
from .errors import (
    DegenerateArrangementError,
    InconsistentDataError,
    MissingIntersectionError,
    SchemaError,
)
from .exact import matrix_lines
from .fourlines import (
    DOCUMENTS,
    GENERATOR,
    bundled_derivation,
    bundled_table,
    eplus_profile,
    four_line_surface,
    ns_relation,
)
from .kodaira import dual_class_of, fiber_data
from .mwgroup import MWPoint, classes_str, derive
from .nslattice import build_table

# bundled config name -> (shipped document, fourlines splitting shape); each
# document answers to its stem and to the stem without "fourlines_"
_BUNDLE_ALIASES = {
    alias: (stem, variant)
    for variant, stem in DOCUMENTS.items()
    for alias in (stem.removeprefix("fourlines_"), stem)
}


# ---------------------------------------------------------------------------
# small rendering helpers


def _point_json(p: MWPoint) -> dict:
    return {
        "free_coeff": p.free_coeff,
        "torsion": list(p.torsion),
        "torsion_name": p.torsion_name,
        "str": str(p),
    }


def _sign(text: str) -> int:
    token = text.strip()
    if token in ("+", "+1", "1"):
        return 1
    if token in ("-", "-1"):
        return -1
    raise SchemaError(f"--sign expects one of '+', '-', '+1', '-1', got {token!r}")


def _dumps(value, indent: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, byte for byte, built by
    joins around the stdlib's C string quoter instead of its pure-Python
    indenting encoder.  It writes values of exactly the types str, int,
    bool, None, list, tuple and dict; anything else, a float or a Fraction
    included, raises TypeError, and so does a dict key that is not a str
    (the quoter refuses it)."""
    kind = type(value)
    if kind is str:
        return encode_basestring_ascii(value)
    if kind is int:
        return int.__repr__(value)
    inner = indent + "  "
    if kind is list or kind is tuple:
        items = [_dumps(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    if kind is dict:
        items = [encode_basestring_ascii(key) + ": " + _dumps(value[key], inner)
                 for key in sorted(value)]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if value is None:
        return "null"
    if kind is bool:
        return "true" if value else "false"
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _emit(args, report: dict, lines) -> int:
    """Print the report as JSON, or else the text lines that lines() returns:
    a --json request never lays out the text."""
    if args.json:
        print(_dumps(report))
    else:
        print("\n".join(lines()))
    return 0


def _lookup(registry: dict, name: str, what: str):
    try:
        return registry[name]
    except KeyError:
        raise SchemaError(
            f"unknown {what} {name!r}; registered: {', '.join(sorted(registry)) or 'none'}"
        ) from None


# ---------------------------------------------------------------------------
# fiber


def cmd_fiber(args) -> int:
    try:
        data = fiber_data(args.kind)
    except ValueError as exc:
        raise SchemaError(str(exc)) from None
    classes = {f"Theta_{i}": list(dual_class_of(data, i)) for i in range(1, data.m)}
    a, a_inv = data.a.cells(), data.a_inv.cells()
    report = {
        "kind": str(data.kind),
        "components": data.m,
        "multiplicities": list(data.multiplicities),
        "euler": data.euler,
        "a": a,
        "a_inv": a_inv,
        "component_group": list(data.group.invariant_factors),
        "component_group_str": data.group.describe(),
        "simple_components": [0, *data.simple],
        "dual_classes": classes,
    }
    lines = lambda: [
        f"fiber kind: {data.kind}",
        f"components: {data.m}  (multiplicities {', '.join(map(str, data.multiplicities))};"
        " Theta_0 meets the zero section)",
        f"euler number: {data.euler}",
        f"intersection matrix A  (rows/columns Theta_1 .. Theta_{data.m - 1}):",
        *("  " + line for line in matrix_lines(a)),
        "inverse A^-1:",
        *("  " + line for line in matrix_lines(a_inv)),
        f"component group: {data.group.describe()}",
        "dual classes of the non-identity components:",
        *(f"  {name} -> ({', '.join(map(str, cls))})" for name, cls in classes.items()),
        "simple components (multiplicity 1): "
        + ", ".join(f"Theta_{i}" for i in (0, *data.simple)),
    ]
    return _emit(args, report, lines)


# ---------------------------------------------------------------------------
# image


def _load_table(args):
    """The requested table and where it came from; a bundled shape's table
    is the one fourlines builds once per process."""
    if args.config is not None:
        try:
            doc = load_config(args.config)
        except OSError as exc:
            raise SchemaError(f"cannot read config {args.config}: {exc}") from None
        return build_table(doc.surface, doc.divisors), f"file:{args.config}"
    try:
        name, variant = _BUNDLE_ALIASES[args.bundled]
    except KeyError:
        raise SchemaError(
            f"unknown bundled config {args.bundled!r}; expected one of"
            f" {', '.join(sorted(_BUNDLE_ALIASES))}"
        ) from None
    return bundled_table(variant), f"bundled:{name}"


def cmd_image(args) -> int:
    table, source = _load_table(args)
    surface = table.cfg
    if args.generator is not None:
        gen_name = args.generator
    elif len(surface.sections) == 1:
        gen_name = surface.sections[0].name
    else:
        names = ", ".join(s.name for s in surface.sections) or "none registered"
        raise SchemaError(f"pass --generator to pick a section (candidates: {names})")
    gen = _lookup(table.sections, gen_name, "generator section")
    divisor = _lookup(table.divisors, args.divisor, "divisor")

    der = derive(table, divisor.name, gen.name)
    free, point = der.free, der.point
    torsion_name = point.torsion_name or "0"

    gamma_report = {}
    gammas = zip(surface.fibers, der.gamma_vectors, der.gamma_classes)
    for (fid, kind), vec, cls in gammas:
        gamma_report[fid] = {
            "kind": str(kind),
            "vector": [render_number(x) for x in vec],
            "class": list(cls),
        }

    report = {
        "source": source,
        "divisor": divisor.name,
        "generator": gen.name,
        "height": render_number(free.height),
        "phi0_self": render_number(free.phi0_self),
        "n_squared": free.n_squared,
        "n": point.free_coeff,
        "sign_determined": free.sign_determined,
        "gamma": gamma_report,
        "torsion_residual": {
            "classes": [list(p) for p in der.torsion_residual],
            "name": torsion_name,
            "coords": list(point.torsion),
        },
        "point": _point_json(point),
    }

    def lines():
        fibers_str = ", ".join(f"{fid} {kind}" for fid, kind in surface.fibers)
        pairing = f"{divisor.name}.{gen.name}"
        sign_note = {
            "pairing": f"(sign fixed by the registered {pairing} pairing)",
            "torsion": f"(sign fixed by torsion: at n = {-point.free_coeff} the residual"
                       " names no torsion section)",
            # at n = 0 both signs are the same point
            "open": f"(sign undetermined: {replace(point, free_coeff=-point.free_coeff)}"
                    f" fits the data as well; register {pairing} to fix it)" if point.free_coeff
                    else "(sign undetermined; both signs give the same decomposition)",
        }[free.sign_route]
        return [
            f"config: {source}",
            f"surface: chi = {surface.chi}; fibers {fibers_str};"
            f" free rank {surface.mw_free_rank};"
            f" torsion {surface.torsion_group.describe()}",
            f"generator: {gen.name}  (height <P_o, P_o> = {free.height})",
            f"divisor: {divisor.name}  (d = D.F = {divisor.d}, D.O = {divisor.d_dot_o},"
            f" D^2 = {divisor.d_squared})",
            f"phi0(D).phi0(D) = {free.phi0_self}",
            f"n^2 = -phi0(D).phi0(D) / height = {free.n_squared}",
            f"n = {point.free_coeff}  {sign_note}",
            "gamma trace  (-A_v^{-1} c(v, D) per fiber, then its component-group class):",
            *(f"  fiber {fid} [{g['kind']}]: ({', '.join(map(str, g['vector']))})"
              f"  ->  class ({', '.join(map(str, g['class']))})"
              for fid, g in gamma_report.items()),
            f"torsion residual gamma(D) - n gamma({gen.name}) ="
            f" {classes_str(der.torsion_residual)}"
            f"  ->  {torsion_name}, coords ({', '.join(map(str, point.torsion))})",
            f"P_D = {point}",
        ]

    return _emit(args, report, lines)


# ---------------------------------------------------------------------------
# cover


# Most n values one --sweep may ask for.  Each costs a cover verdict and a
# few lines of output; the work is linear in the range.  A full --json sweep
# 3..10002 in one fresh process measured 0.35-0.45 s, 41.7 MB max RSS and
# 3 834 628 characters of stdout for type I, and 0.30-0.35 s, 38.0 MB and
# 4 295 730 characters for type II (CPython 3.11.7, 2-CPU x86_64).
MAX_SWEEP = 10_000


def _parse_sweep(text: str) -> tuple[int, int]:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise SchemaError(f"--sweep expects a range like 3..12, got {text!r}")
    a, b = parse_int(lo, "--sweep"), parse_int(hi, "--sweep")
    if a > b:
        raise SchemaError(f"--sweep range is empty: {a} > {b}")
    if b - a + 1 > MAX_SWEEP:
        raise SchemaError(
            f"--sweep {a}..{b} has {b - a + 1} values; at most MAX_SWEEP = {MAX_SWEEP}"
        )
    return a, b


def cmd_cover(args) -> int:
    if args.n is not None:
        values = [parse_int(args.n, "--n")]
        sweep = None
    else:
        a, b = _parse_sweep(args.sweep)
        values = list(range(a, b + 1))
        sweep = [a, b]
    atype = ArrangementType.parse(args.type)
    verdicts = [d2n_cover_exists(atype, n) for n in values]
    report = {
        "arrangement_type": atype.value,
        "sweep": sweep,
        "results": [
            {
                "n": v.n,
                "order": 2 * v.n,
                "exists": v.exists,
                "reasons": list(v.reasons),
                "witness": str(v.witness) if v.witness is not None else None,
            }
            for v in verdicts
        ],
        "exists_for": [v.n for v in verdicts if v.exists],
    }

    def lines():
        out = []
        for v in verdicts:
            word = "EXISTS" if v.exists else "does not exist"
            out.append(f"{atype}, n = {v.n}: dihedral cover of order {2 * v.n} {word}")
            for reason in v.reasons:
                out.append(f"  - {reason}")
        if sweep is not None:
            hits = ", ".join(str(n) for n in report["exists_for"]) or "none"
            out.append(f"summary: covers exist for n in {{{hits}}}  (sweep {sweep[0]}..{sweep[1]})")
        return out

    return _emit(args, report, lines)


# ---------------------------------------------------------------------------
# arrangement


# Most parameter draws one --random seed may take.  Seeds 0..19999 need at
# most 6 draws (1.08 on average), so only a broken generator reaches the cap.
MAX_DRAWS = 1_000


def _random_arrangement(seed: int):
    rng = random.Random(seed)
    for _ in range(MAX_DRAWS):
        s1 = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        s2 = Fraction(rng.randint(-30, 30), rng.randint(1, 12))
        sign = rng.choice((1, -1))
        try:
            return generate_arrangement(s1, s2, sign), s1, s2, sign
        except DegenerateArrangementError:
            continue
    raise InconsistentDataError(
        f"--random {seed}: all MAX_DRAWS = {MAX_DRAWS} parameter draws were degenerate"
    )


def cmd_arrangement(args) -> int:
    if args.random is not None:
        if args.s1 is not None or args.s2 is not None or args.sign is not None:
            raise SchemaError("--random replaces --s1/--s2/--sign; pass one or the other")
        seed = parse_int(args.random, "--random")
        arr, s1, s2, sign = _random_arrangement(seed)
    else:
        if args.s1 is None or args.s2 is None:
            raise SchemaError("pass both --s1 and --s2 (or --random SEED)")
        seed = None
        s1 = parse_rational(args.s1, "--s1")
        s2 = parse_rational(args.s2, "--s2")
        sign = _sign(args.sign) if args.sign is not None else 1
        arr = generate_arrangement(s1, s2, sign)
    atype = classify_type(arr)
    point = image_of(arr)
    report = {
        "requested": {
            "s1": render_number(s1),
            "s2": render_number(s2),
            "sign": sign,
            "seed": seed,
        },
        "arrangement": arr.as_dict(),
        "type": atype.value,
        "collinear_tangencies": atype is ArrangementType.TYPE_I,
        "image": _point_json(point),
    }
    rendered = report["arrangement"]
    lines = lambda: [
        f"arrangement: sign {'+1' if sign > 0 else '-1'}, s1 = {s1}, s2 = {s2}"
        + (f"  (drawn from seed {seed})" if seed is not None else ""),
        f"tangency parameters t(q_i): {', '.join(rendered['q_params'])}",
        f"residual parameters t(p_i): {', '.join(rendered['p_params'])}",
        f"type: {arr.type_tag}  (tangency points"
        f" {'collinear' if report['collinear_tangencies'] else 'not collinear'})",
        "lines (a, b, c with ax + by + cz = 0):",
        *(f"  {name}: ({', '.join(coeffs)})" for name, coeffs in rendered["lines"].items()),
        f"image of E+ through the full pipeline: P = {point}",
    ]
    return _emit(args, report, lines)


# ---------------------------------------------------------------------------
# demo


def _i0star_group() -> tuple:
    """Basis-free facts about I0*'s component group: its name, how many of
    e1..e3 are distinct nonzero classes, e1 + e2 == e3, and e4 == 0."""
    data = fiber_data("I0*")
    zero = data.group.zero()
    e1, e2, e3, e4 = (dual_class_of(data, i) for i in (1, 2, 3, 4))
    nonzero = len({e1, e2, e3} - {zero})
    return data.group.describe(), nonzero, data.group.add(e1, e2) == e3, e4 == zero


def _collinear_relation() -> tuple:
    """The collinear class relation's verdict and the squares of its sides."""
    table = bundled_table("collinear")
    lhs, rhs = ns_relation("collinear")
    status = verify_ns_relation(table, lhs, rhs).status
    return status, table.pair_class(lhs, lhs), table.pair_class(rhs, rhs)


def _rejects_non_square() -> bool:
    """Whether derive rejects a synthetic (E+)^2 = 2 as not a perfect square."""
    bad = replace(eplus_profile("collinear"), d_squared=2)
    try:
        derive(build_table(four_line_surface(), [bad]), "E+", GENERATOR)
    except InconsistentDataError as exc:
        return "not a perfect square" in str(exc)
    return False


# (name, observe, golden, PASS detail): a check passes when observe() == golden
_DEMO_CHECKS = [
    ("fiber catalog goldens",
     lambda: [(d.multiplicities, d.euler, d.a.cells(), d.a_inv.cells())
              for d in map(fiber_data, ("I0*", "I2"))],
     [((1, 1, 1, 1, 2), 6,
       [[-2, 0, 0, 1], [0, -2, 0, 1], [0, 0, -2, 1], [1, 1, 1, -2]],
       [[-1, "-1/2", "-1/2", -1], ["-1/2", -1, "-1/2", -1],
        ["-1/2", "-1/2", -1, -1], [-1, -1, -1, -2]]),
      ((1, 1), 2, [[-2]], [["-1/2"]])],
     "I0* and I2 matrices match their goldens"),
    ("component group (Z/2)^2", _i0star_group, ("Z/2 x Z/2", 3, True, True),
     "component group (Z/2)^2 with e1 + e2 = e3"),
    ("bundled type2 image",
     lambda: bundled_derivation("noncollinear", "E+").point,
     MWPoint(2, (0, 0)), "fourlines_type2: P_(E+) = 2*P_o + 0"),
    ("bundled type1 image",
     lambda: bundled_derivation("collinear", "E+").point,
     MWPoint(0, (0, 0)), "fourlines_type1: P_(E+) = O"),
    ("generator height",
     lambda: bundled_derivation("collinear", "E+").free.height,
     Fraction(1, 2), "<P_o, P_o> = 1/2"),
    ("class relation, collinear", _collinear_relation, (RelationStatus.HOLDS, 3, 3),
     "collinear class relation verifies on every generator pairing; both sides square to 3"),
    ("class relation, noncollinear",
     lambda: verify_ns_relation(bundled_table("noncollinear"), *ns_relation("noncollinear")).status,
     RelationStatus.HOLDS, "noncollinear class relation verifies on every generator pairing"),
    # every n >= 3 at once: type I every residue mod 2, type II exactly {4}
    ("dihedral cover table",
     lambda: tuple(map(cover_spectrum, ("I", "II"))),
     (CoverSpectrum(2, frozenset({0, 1})), CoverSpectrum(0, frozenset({4}))),
     "n = 3..50: type I always, type II only n = 4"),
    ("arrangement pipeline",
     lambda: [(arr.q_params, classify_type(arr).value, str(image_of(arr)))
              for arr in (generate_arrangement(2, 3, sign) for sign in (1, -1))],
     [((2, 3, Fraction(-7, 5)), "I", "O"), ((2, 3, Fraction(-5, 7)), "II", "2*P_o + 0")],
     "s1 = 2, s2 = 3: sign +1 -> type I, P = O; sign -1 -> type II, P = 2*P_o + 0"),
    ("rank accounting", lambda: four_line_surface().ns_rank, 10, "NS rank 10 = 2 + 7 + 1"),
    ("inconsistency guardrail", _rejects_non_square, True,
     "synthetic (E+)^2 = 2 rejected: n^2 = 2 not a perfect square"),
]


def cmd_demo(args) -> int:
    results = []
    for name, observe, golden, detail in _DEMO_CHECKS:
        status = "PASS"
        try:
            got = observe()
            if got != golden:
                status, detail = "FAIL", f"got {got}, expected {golden}"
        except Exception as exc:  # any failure must surface as a FAIL line
            status, detail = "FAIL", f"{type(exc).__name__}: {exc}"
        results.append({"name": name, "status": status, "detail": detail})
    failures = sum(r["status"] == "FAIL" for r in results)
    report = {"checks": results, "failures": failures,
              "ok": failures == 0, "total": len(results)}
    lines = lambda: [
        *(f"{r['status']}  {r['name']}: {r['detail']}" for r in results),
        f"{len(results) - failures}/{len(results)} checks passed"
        if failures else f"all {len(results)} checks passed",
    ]
    _emit(args, report, lines)
    return 1 if failures else 0


# ---------------------------------------------------------------------------
# parser and dispatch


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args keeps no
    state between calls, so every main() call reuses it."""
    parser = argparse.ArgumentParser(
        prog="ajimage",
        description="Exact Mordell-Weil decomposition of divisor classes on"
        " elliptic surfaces, and dihedral-cover decisions for nodal-cubic"
        " plus four-line arrangements.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, func, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--json", action="store_true", help="emit a JSON report (sorted keys)")
        p.set_defaults(func=func)
        return p

    p = add("fiber", cmd_fiber, "intersection data of one reducible Kodaira fiber")
    p.add_argument("kind", help="Kodaira kind, e.g. I0*, I2, IV*")

    p = add("image", cmd_image, "Abel-Jacobi decomposition of a configured divisor class")
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--config", metavar="PATH", help="JSON surface/divisor config file")
    src.add_argument("--bundled", metavar="NAME",
                     help=f"bundled config: type1, type2 (or {', '.join(BUNDLED)})")
    p.add_argument("--divisor", default="E+", help="registered divisor name (default E+)")
    p.add_argument("--generator", default=None,
                   help="generator section name (default: the only registered section)")

    p = add("cover", cmd_cover, "dihedral-cover existence decisions")
    p.add_argument("--type", required=True, help="arrangement type, I or II")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--n", help="single n (cover order 2n), n >= 3")
    which.add_argument("--sweep", metavar="A..B",
                       help=f"inclusive range of at most {MAX_SWEEP} n values")

    p = add("arrangement", cmd_arrangement,
            "build a nodal-cubic + four-line arrangement and compute its image")
    p.add_argument("--s1", help="first tangency parameter (exact rational; use --s1=-7/5 style)")
    p.add_argument("--s2", help="second tangency parameter")
    p.add_argument("--sign", help="+ for collinear tangencies, - for the twisted triple")
    p.add_argument("--random", metavar="SEED",
                   help="draw s1, s2, sign reproducibly from SEED instead")

    add("demo", cmd_demo, "reproduce every golden value end to end")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed usage/help
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)
    try:
        return args.func(args)
    except (SchemaError, DegenerateArrangementError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (InconsistentDataError, MissingIntersectionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
