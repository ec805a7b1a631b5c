"""The four workloads: seeded inputs, the ops that call the library, and checks.

An op is a closed-loop request from the single client: ``run(tracer)``
calls the public library functions through ``tracer.call`` so a traced run
can record a span per call, and ``check(result)`` compares the answer with
an expectation from ``oracles`` (None when right, a reason when wrong).
Ops whose input calls for a documented rejection carry that exception
class in ``rejects``; raising it is a correct answer, anything else is a
failure.

Set-up (``setup``) is everything a fresh interpreter does before the first
timed op: importing the library, generating the inputs from the seed, and
building the fiber catalog for every kind the workload will touch.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter_ns
from typing import Any, Callable

import oracles

# ---------------------------------------------------------------------------
# op plumbing


@dataclass
class Op:
    kind: str
    run: Callable[[Any], Any]
    check: Callable[[Any], "str | None"]
    rejects: type | None = None
    label: str = ""  # the input an op is about, where reports need it


@dataclass
class State:
    """What set-up produced: the cyclic op list plus facts for the report."""

    ops: list
    input_size: str
    components_built: int = 0
    setup_failures: list = field(default_factory=list)
    draws: dict = field(default_factory=dict)  # arrangement draw index -> accepted
    stdout_bytes: dict = field(default_factory=dict)  # cli op position -> bytes printed


def warm_catalog(kinds, tracer, state: State) -> None:
    """Build the catalog of each kind once (cold: first call in this process).

    Traced runs also take the Smith form of each kind's Gram matrix here,
    outside any op, so the exact layer has a per-layer figure."""
    from ajimage import fiber_data

    for kind in kinds:
        data = tracer.call("kodaira.fiber_data", fiber_data, kind)
        state.components_built += data.m
        bad = oracles.check_catalog(kind, data)
        if bad is None and tracer.enabled:
            bad = smith_probe(kind, data, tracer)
        if bad:
            state.setup_failures.append(bad)


# ---------------------------------------------------------------------------
# catalog-cold

# The exceptional kinds plus I_n and I*_n for n = 20, 60, 100: an even grid
# up to and including n = 100, coarse enough that every kind is built twice
# in a 30 s run.  The latency percentiles are taken over the grid kinds
# only, one value each (its median over the run): the exceptional kinds
# have a fixed size and build in a few milliseconds, so they say nothing
# about how cost grows with n, and a build that short measures one instant
# of a host whose speed drifts by half within seconds.  They are still
# built, checked and counted in ops_per_s.
EXCEPTIONAL_KINDS = ("III", "IV", "IV*", "III*", "II*")
CATALOG_GRID = (20, 60, 100)
CATALOG_KINDS = (
    EXCEPTIONAL_KINDS
    + tuple(f"I{n}" for n in CATALOG_GRID)
    + tuple(f"I{n}*" for n in CATALOG_GRID)
)
TINY_CATALOG_KINDS = ("III", "IV*", "II*", "I6", "I9", "I3*", "I4*")


def catalog_order(seed: int, tiny: bool) -> list[str]:
    kinds = list(TINY_CATALOG_KINDS if tiny else CATALOG_KINDS)
    random.Random(seed).shuffle(kinds)
    return kinds


def setup_catalog_cold(seed: int, tracer, tiny: bool, kinds=None) -> State:
    """Ops that build `kinds` in the given order (default: every listed kind
    in seeded order); every kind must be new to this interpreter."""
    from ajimage import fiber_data

    listed = TINY_CATALOG_KINDS if tiny else CATALOG_KINDS
    state = State([], f"{len(listed)} distinct kinds: " + " ".join(listed))

    def make(kind):
        def run(tr):
            data = tr.call("kodaira.fiber_data", fiber_data, kind)
            state.components_built += data.m
            return data

        return Op("catalog", run, lambda data: oracles.check_catalog(kind, data), label=kind)

    state.ops = [make(k) for k in (catalog_order(seed, tiny) if kinds is None else kinds)]
    return state


def smith_probe(kind: str, data, tracer) -> "str | None":
    """Traced runs only: Smith form of the kind's Gram matrix, outside any op."""
    from ajimage import smith_normal_form

    gram = [[-int(x) for x in row] for row in data.a.rows]
    return oracles.check_smith(kind, tracer.call("exact.smith_normal_form", smith_normal_form, gram))


# ---------------------------------------------------------------------------
# pipeline-bundled

# One block is the call sequence of the worked example (``ajimage demo``):
# both bundled images, both class relations, one arrangement of each sign
# and the cover table n = 3..50 for both types.  Every op kind has the same
# weight; only the order inside a block and the arrangement parameters are
# drawn from the seed.
BUNDLED_BLOCK = ("image", "relation", "arrangement", "cover") * 2
COVER_TABLE = range(3, 51)


def _draw_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-12, 12), rng.randint(1, 6))


def setup_pipeline_bundled(seed: int, tracer, tiny: bool) -> State:
    from ajimage import (
        DegenerateArrangementError,
        abel_jacobi_image,
        build_table,
        classify_type,
        d2n_cover_exists,
        eminus_profile,
        eplus_profile,
        four_line_surface,
        generate_arrangement,
        image_of,
        loads_config,
        ns_relation,
        verify_ns_relation,
    )
    from common import PACKAGE

    rng = random.Random(seed)
    blocks = 4 if tiny else 125
    pool_size = 16 if tiny else 250
    state = State([], f"{blocks * len(BUNDLED_BLOCK)} ops per cycle in blocks of the worked"
                  " example (image, relation, arrangement, cover: 2 each), "
                  f"{pool_size} arrangement draws, cover tables n = 3..50")
    warm_catalog(("I0*", "I2"), tracer, state)
    texts = {v: (PACKAGE / "data" / f"fourlines_{v}.json").read_text("utf-8")
             for v in ("type1", "type2")}
    tables = {
        v: build_table(four_line_surface(), [eplus_profile(v), eminus_profile(v)])
        for v in ("collinear", "noncollinear")
    }
    # signs alternate, so every block has one arrangement of each sign
    draws = [(_draw_rational(rng), _draw_rational(rng), 1 if i % 2 == 0 else -1)
             for i in range(pool_size)]

    def image(variant):
        def run(tr):
            doc = tr.call("configio.loads_config", loads_config, texts[variant])
            table = tr.call("nslattice.build_table", build_table, doc.surface, doc.divisors)
            return {d: tr.call("mwgroup.abel_jacobi_image", abel_jacobi_image, table, d, "s_o")
                    for d in ("E+", "E-")}

        return Op("image", run, lambda points: oracles.check_image(variant, points))

    def relation(variant):
        def run(tr):
            lhs, rhs = ns_relation(variant)
            return tr.call("dihedral.verify_ns_relation", verify_ns_relation,
                           tables[variant], lhs, rhs)

        return Op("relation", run, oracles.check_relation)

    def arrangement(index):
        s1, s2, sign = draws[index]

        def run(tr):
            state.draws[index] = False
            arr = tr.call("arrangement.generate_arrangement", generate_arrangement, s1, s2, sign)
            state.draws[index] = True
            atype = tr.call("arrangement.classify_type", classify_type, arr)
            return arr, atype, tr.call("arrangement.image_of", image_of, arr)

        if oracles.arrangement_is_degenerate(s1, s2, sign):
            return Op("arrangement", run, lambda _: "degenerate draw was accepted",
                      rejects=DegenerateArrangementError)
        return Op("arrangement", run, lambda out: oracles.check_arrangement(sign, *out))

    def cover(atype):
        def run(tr):
            return [tr.call("dihedral.d2n_cover_exists", d2n_cover_exists, atype, n)
                    for n in COVER_TABLE]

        def check(verdicts):
            for n, v in zip(COVER_TABLE, verdicts):
                bad = oracles.check_cover(atype, n, v)
                if bad:
                    return bad
            return None

        return Op("cover", run, check)

    next_draw = 0
    for _ in range(blocks):
        block = list(BUNDLED_BLOCK)
        rng.shuffle(block)
        images = ["type1", "type2"]
        relations = ["collinear", "noncollinear"]
        covers = ["I", "II"]
        for variants in (images, relations, covers):
            rng.shuffle(variants)
        for kind in block:
            if kind == "image":
                state.ops.append(image(images.pop()))
            elif kind == "relation":
                state.ops.append(relation(relations.pop()))
            elif kind == "arrangement":
                state.ops.append(arrangement(next_draw % pool_size))
                next_draw += 1
            else:
                state.ops.append(cover(covers.pop()))
    return state


# ---------------------------------------------------------------------------
# pipeline-wide

# (chi, fiber kinds): every fiber has >= 30 components, Euler sum <= 12 chi
# and 2 + sum(m_v - 1) + 1 <= 10 chi.  The shapes are fixed so that every
# seed does the same amount of matrix work; the seed draws the generator
# section and the divisors.
WIDE_SURFACES = (
    (8, ("I30", "I26*")),
    (9, ("I34", "I29*")),
    (10, ("I30", "I34", "I26*")),
)
TINY_WIDE_SURFACES = ((2, ("I6", "I3*")), (3, ("I8", "I4*")))
# 108 distinct ops per cycle, so that more than ten per-op means lie beyond
# the 90th percentile
WIDE_DIVISORS = 36
MULTIPLES = (-3, -2, -1, 0, 1, 2, 3)


def _wide_surface(rng: random.Random, chi: int, kinds):
    """A rank-one, torsion-free surface whose generator height is positive and
    whose multiples k*P_o (k in MULTIPLES) are all realizable; returns the
    config pieces plus the usable multiples."""
    fibers = tuple((f"v{i}", kind) for i, kind in enumerate(kinds))
    euler = sum(oracles.kind_facts(k)[1] for k in kinds)
    rank = 2 + sum(oracles.kind_facts(k)[0] - 1 for k in kinds) + 1
    if euler > 12 * chi or rank > 10 * chi:
        raise ValueError(f"surface {kinds} with chi = {chi} breaks the Euler or rank bound")
    for _ in range(1000):
        components = {}
        for fid, kind in fibers:
            simple = list(oracles.kind_facts(kind)[3])
            components[fid] = rng.choice(simple)
        contr = sum(oracles.local_contribution(k, components[f]) for f, k in fibers)
        s_dot_o = max(0, int((contr - 2 * chi) // 2) + 1) + rng.randint(0, 2)
        height = oracles.generator_height(chi, s_dot_o, fibers, components)
        multiples = [k for k in MULTIPLES
                     if oracles.multiple_is_consistent(chi, height, fibers, components, k)]
        if height > 0 and sum(1 for k in multiples if k) >= 4:
            return fibers, components, s_dot_o, multiples
    raise ValueError(f"no usable generator section on {kinds} with chi = {chi}")


def _wide_document(chi, fibers, components, s_dot_o, divisor) -> str:
    surface = {
        "chi": chi,
        "fibers": [{"id": fid, "kind": kind} for fid, kind in fibers],
        "mw_free_rank": 1,
        "sections": [{"name": "s_o", "s_dot_O": s_dot_o, "components": components}],
    }
    doc = {"schema_version": 1, "surface": surface, "divisors": [divisor]}
    return json.dumps(doc, indent=2, sort_keys=True)


def setup_pipeline_wide(seed: int, tracer, tiny: bool) -> State:
    from ajimage import (
        FiberKind,
        SectionProfile,
        SurfaceConfig,
        abel_jacobi_image,
        build_table,
        loads_config,
    )
    from ajimage.nslattice import SYM_F, SYM_O, FormalClass, section_sym, theta

    rng = random.Random(seed)
    shapes = TINY_WIDE_SURFACES if tiny else WIDE_SURFACES
    per_surface = 2 if tiny else WIDE_DIVISORS
    state = State([], "; ".join(f"chi {chi}: {' + '.join(kinds)}" for chi, kinds in shapes)
                  + f"; {per_surface} divisors each")
    warm_catalog(sorted({k for _, kinds in shapes for k in kinds}), tracer, state)

    def op(text, k):
        def run(tr):
            doc = tr.call("configio.loads_config", loads_config, text)
            table = tr.call("nslattice.build_table", build_table, doc.surface, doc.divisors)
            return tr.call("mwgroup.abel_jacobi_image", abel_jacobi_image, table, "D", "s_o")

        return Op("wide", run, lambda point: oracles.check_point(
            point, k, "O" if k == 0 else f"{k}*P_o + 0"))

    per_shape = []
    for chi, kinds in shapes:
        fibers, components, s_dot_o, multiples = _wide_surface(rng, chi, kinds)
        cfg = SurfaceConfig(
            chi=chi,
            fibers=tuple((fid, FiberKind.parse(kind)) for fid, kind in fibers),
            sections=(SectionProfile("s_o", s_dot_o, components),),
            mw_free_rank=1,
        )
        table = build_table(cfg)
        ops = []
        for _ in range(per_surface):
            # D = k s_o + a O + b F + sum c Theta, so P_D = k P_o by construction
            k = rng.choice(multiples)
            coeffs = {section_sym("s_o"): k, SYM_O: rng.randint(-3, 3), SYM_F: rng.randint(-3, 3)}
            for fid, kind in fibers:
                m = oracles.kind_facts(kind)[0]
                for i in rng.sample(range(1, m), 3):
                    coeffs[theta(fid, i)] = rng.randint(-3, 3)
            cls = FormalClass(coeffs)

            def pair(sym):
                value = table.pair_class(cls, FormalClass.of(sym))
                if value.denominator != 1:
                    raise ValueError("non-integral pairing in a generated divisor")
                return int(value)

            divisor = {
                "name": "D",
                "d": pair(SYM_F),
                "D_dot_O": pair(SYM_O),
                "c": {fid: [pair(theta(fid, i)) for i in range(1, oracles.kind_facts(kind)[0])]
                      for fid, kind in fibers},
                "D_squared": int(table.pair_class(cls, cls)),
                "D_dot_section": {"s_o": pair(section_sym("s_o"))},
            }
            ops.append(op(_wide_document(chi, fibers, components, s_dot_o, divisor), k))
        per_shape.append(ops)
    # rounds with one divisor of every surface, in seeded order
    for r in range(per_surface):
        round_ops = [ops[r] for ops in per_shape]
        rng.shuffle(round_ops)
        state.ops.extend(round_ops)
    return state


# ---------------------------------------------------------------------------
# cli-session

# One argument list per subcommand in every block: each op kind has the same
# weight.  The cover sweep is the worked example's table, n = 3..50.
CLI_BLOCK = ("fiber", "cover", "image", "arrangement", "demo")
CLI_FIBER_KINDS = (
    "I2", "I3", "I4", "I5", "I6", "I7", "I8", "I9",
    "I0*", "I1*", "I2*", "I3*", "I4*", "III", "IV", "IV*", "III*", "II*",
)


def setup_cli_session(seed: int, tracer, tiny: bool) -> State:
    from ajimage import cli

    rng = random.Random(seed)
    blocks = 2 if tiny else 200
    state = State([], f"{blocks * len(CLI_BLOCK)} argument lists per cycle (fiber, cover,"
                  " image, arrangement, demo: 1 each per block), cover sweeps 3..50")
    warm_catalog(CLI_FIBER_KINDS, tracer, state)

    def op(argv, position):
        name = f"cli.main.{argv[0]}"

        def run(tr):
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = tr.call(name, cli.main, argv)
            text = out.getvalue()
            state.stdout_bytes[position] = len(text.encode())
            return code, text

        return Op(f"cli.{argv[0]}", run, lambda out: oracles.check_cli(argv, *out))

    for _ in range(blocks):
        block = list(CLI_BLOCK)
        rng.shuffle(block)
        for command in block:
            if command == "fiber":
                argv = ["fiber", rng.choice(CLI_FIBER_KINDS)]
            elif command == "cover":
                argv = ["cover", "--type", rng.choice(("I", "II")), "--sweep", "3..50"]
            elif command == "image":
                argv = ["image", "--bundled", rng.choice(("type1", "type2")),
                        "--divisor", rng.choice(("E+", "E-"))]
            elif command == "arrangement":
                argv = ["arrangement", "--random", str(rng.randint(0, 10**6))]
            else:
                argv = ["demo"]
            state.ops.append(op(argv + ["--json"], len(state.ops)))
    return state


SETUP = {
    "catalog-cold": setup_catalog_cold,
    "pipeline-bundled": setup_pipeline_bundled,
    "pipeline-wide": setup_pipeline_wide,
    "cli-session": setup_cli_session,
}


# ---------------------------------------------------------------------------
# the closed loop


@dataclass
class LoopResult:
    latencies_ns: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    rejected: int = 0
    reasons: list = field(default_factory=list)
    positions: list = field(default_factory=list)  # op-list index of each timed latency

    def add(self, other: "LoopResult") -> None:
        self.latencies_ns += other.latencies_ns
        self.positions += other.positions
        self.attempted += other.attempted
        self.failed += other.failed
        self.rejected += other.rejected
        self.reasons += other.reasons[: max(0, 5 - len(self.reasons))]


def run_op(op: Op, op_id: int, tracer, result: LoopResult, timed: bool = True):
    """One request: time the library calls, then check the answer (untimed).

    Returns the op's raw result so callers can inspect it (None on error).
    """
    tracer.begin_op(op_id, op.kind)
    error = value = None
    start = perf_counter_ns()
    try:
        value = op.run(tracer)
    except Exception as exc:  # a crash is a failed op, not a dead benchmark
        error = exc
    end = perf_counter_ns()
    tracer.end_op(start, end)
    result.attempted += 1
    if timed:
        result.latencies_ns.append(end - start)
    if error is not None:
        if op.rejects is not None and isinstance(error, op.rejects):
            result.rejected += 1
            return None
        reason = f"{op.kind}: raised {type(error).__name__}: {error}"
    elif op.rejects is not None:
        reason = f"{op.kind}: expected {op.rejects.__name__}, got a result"
    else:
        try:
            reason = op.check(value)
        except Exception as exc:  # a malformed answer can break the checker
            reason = f"{op.kind}: check raised {type(exc).__name__}: {exc}"
    if reason:
        result.failed += 1
        if len(result.reasons) < 5:
            result.reasons.append(reason)
    return value


def run_loop(ops, seconds: float, tracer, start: int = 0) -> tuple[LoopResult, int]:
    """Closed loop with one client: cycle through ops, beginning at index
    `start`, until `seconds` pass; returns the result and the next index."""
    result = LoopResult()
    deadline = perf_counter_ns() + int(seconds * 1e9)
    i = start
    while True:
        run_op(ops[i % len(ops)], i, tracer, result)
        result.positions.append(i % len(ops))
        i += 1
        if perf_counter_ns() >= deadline:
            return result, i
