"""Benchmark entry point for ajimage: one client, closed loop, single process.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source checkout.  It byte-compiles ``src/ajimage``,
generates the workload's inputs from the seed, runs the ops for about S
seconds, checks every answer, and prints a readable report followed by one
JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (END_TO_END below);
with ``--trace 1`` they are the per-layer ones (PER_LAYER), taken from spans
recorded around every library call, which are also written to
``perfbench/out/trace-<workload>-seed<N>.json``.  ``--tiny`` shrinks every
input for a smoke run of a few seconds.

Workloads (BENCHMARK.json says why each exists): pipeline-bundled,
pipeline-wide, cli-session; catalog-cold runs the same way by hand but is
not declared there (perfbench/README.md says why).
"""

from __future__ import annotations

import argparse
import compileall
import json
import select
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402
import workloads  # noqa: E402

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

CLI_COMMANDS = ("image", "cover", "arrangement", "fiber", "demo")

# (metric, unit, span name, span statistic); the statistic "share" is the
# span's busy time over the busy time of all op spans
_SPAN_METRICS = (
    ("kodaira.fiber_data.calls", "count", "kodaira.fiber_data", "calls"),
    ("kodaira.fiber_data.busy_s", "s", "kodaira.fiber_data", "busy_s"),
    ("kodaira.fiber_data.p50_ms", "ms", "kodaira.fiber_data", "p50_ms"),
    ("kodaira.fiber_data.max_ms", "ms", "kodaira.fiber_data", "max_ms"),
    ("exact.smith_normal_form.busy_s", "s", "exact.smith_normal_form", "busy_s"),
    ("configio.loads_config.p50_ms", "ms", "configio.loads_config", "p50_ms"),
    ("nslattice.build_table.p50_ms", "ms", "nslattice.build_table", "p50_ms"),
    ("nslattice.build_table.busy_share", "ratio", "nslattice.build_table", "share"),
    ("mwgroup.abel_jacobi_image.p50_ms", "ms", "mwgroup.abel_jacobi_image", "p50_ms"),
    ("mwgroup.abel_jacobi_image.busy_share", "ratio", "mwgroup.abel_jacobi_image", "share"),
    ("dihedral.verify_ns_relation.p50_ms", "ms", "dihedral.verify_ns_relation", "p50_ms"),
    ("dihedral.d2n_cover_exists.p50_ms", "ms", "dihedral.d2n_cover_exists", "p50_ms"),
    ("arrangement.generate_arrangement.p50_ms", "ms", "arrangement.generate_arrangement", "p50_ms"),
    ("arrangement.image_of.p50_ms", "ms", "arrangement.image_of", "p50_ms"),
) + tuple(
    (f"cli.main.{c}.p50_ms", "ms", f"cli.main.{c}", "p50_ms") for c in CLI_COMMANDS
)

PER_LAYER = tuple((name, unit) for name, unit, _, _ in _SPAN_METRICS) + (
    ("kodaira.components_built", "count"),
    ("arrangement.accepted_ratio", "ratio"),
    ("cli.stdout_bytes", "count"),
    ("trace.overhead_ratio", "ratio"),
)

SETUP_PROBES = 7
# a catalog-cold round takes 10-15 s on a 2-vCPU x86_64 host (CPython 3.11)
CATALOG_ROUND_S = 15
WARMUP_OPS = 10
CHILD = str(Path(__file__).resolve().parent / "child.py")
CHILD_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a wrong answer)."""


def _child(args: list[str]) -> tuple[float, dict]:
    """Start child.py, return (seconds until its JSON line, the parsed line)."""
    start = perf_counter_ns()
    with subprocess.Popen([sys.executable, CHILD, *args], stdout=subprocess.PIPE,
                          cwd=common.ROOT, text=True) as proc:
        try:
            if not select.select([proc.stdout], [], [], CHILD_TIMEOUT_S)[0]:
                raise subprocess.TimeoutExpired(proc.args, CHILD_TIMEOUT_S)
            line = proc.stdout.readline()
            elapsed = (perf_counter_ns() - start) / 1e9
            proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
            raise BenchError(f"child {' '.join(args)} did not finish in {CHILD_TIMEOUT_S} s")
    if proc.returncode != 0 or not line:
        raise BenchError(f"child {' '.join(args)} exited with {proc.returncode}")
    return elapsed, json.loads(line)


def _catalog_child(trace: bool, tiny: bool, kinds: list[str]) -> dict:
    """Build `kinds` once each, cold, in one fresh interpreter."""
    return _child(["catalog", str(int(trace)), str(int(tiny)), *kinds])[1]


class _SetupProbes:
    """Set-up timed in fresh interpreters, spread over the run so that the
    median does not rest on one moment of a host whose speed drifts."""

    def __init__(self, workload: str, seed: int, tiny: bool):
        self.args = ["setup", workload, str(seed), str(int(tiny))]
        self.times: list[float] = []
        self.failures: list[str] = []

    def probe(self) -> None:
        elapsed, out = _child(self.args)
        self.times.append(elapsed)
        self.failures += out["failures"]


def _pass_result(p: dict) -> workloads.LoopResult:
    return workloads.LoopResult(p["latencies_ns"], p["attempted"], p["failed"], p["rejected"],
                                p["reasons"])


def _ops_per_s(latencies_ns) -> float:
    """One client, so ops per second of op time is 1 / mean latency."""
    return len(latencies_ns) / (sum(latencies_ns) / 1e9)


def _request_means(result: workloads.LoopResult) -> list[float]:
    """Each distinct op's mean latency over its repeats in the run.

    The loop cycles through the op list, so every op runs several times at
    moments spread over the run.  Averaging those first keeps a percentile
    from jumping between the host's fast and slow spells as their shares of
    the run shift; the spread between ops (their own cost) stays."""
    by_op: dict[int, list[int]] = {}
    for position, ns in zip(result.positions, result.latencies_ns):
        by_op.setdefault(position, []).append(ns)
    return [statistics.fmean(v) for v in by_op.values()]


def _in_process(workload: str, seed: int, tiny: bool, tracer):
    state = workloads.SETUP[workload](seed, tracer, tiny)
    result = workloads.LoopResult()
    result.attempted += len(state.setup_failures)
    result.failed += len(state.setup_failures)
    result.reasons += state.setup_failures[:5]
    null = common.NullTracer()
    for i, op in enumerate(state.ops[:WARMUP_OPS]):
        workloads.run_op(op, i, null, result, timed=False)
    return state, result


# ---------------------------------------------------------------------------
# tracing off: end-to-end metrics


def run_untraced(workload: str, seed: int, seconds: float, tiny: bool):
    probes = _SetupProbes(workload, seed, tiny)
    total = workloads.LoopResult()
    if workload == "catalog-cold":
        # a round builds every kind in seeded order, each as the only build
        # of its own fresh interpreter; the number of rounds depends on
        # --seconds only, so every commit does the same work
        builds = workloads.catalog_order(seed, tiny) * max(1, int(seconds // CATALOG_ROUND_S))
        spacing = max(1, len(builds) // SETUP_PROBES)
        passes = []
        for i, kind in enumerate(builds):
            if i % spacing == 0 and len(probes.times) < SETUP_PROBES:
                probes.probe()
            passes.append(_catalog_child(False, tiny, [kind]))
        per_kind: dict[str, list[int]] = {}
        for p in passes:
            total.add(_pass_result(p))
            for label, ns in zip(p["labels"], p["latencies_ns"]):
                per_kind.setdefault(label, []).append(ns)
        input_size = f"{passes[0]['input_size']}; {len(passes)} builds, one per fresh interpreter"
    else:
        state, warm = _in_process(workload, seed, tiny, common.NullTracer())
        total.add(warm)
        index = 0
        for _ in range(SETUP_PROBES):
            probes.probe()
            part, index = workloads.run_loop(state.ops, seconds / SETUP_PROBES,
                                             common.NullTracer(), index)
            total.add(part)
        input_size = state.input_size
    while len(probes.times) < SETUP_PROBES:
        probes.probe()
    total.attempted += len(probes.failures)
    total.failed += len(probes.failures)
    total.reasons += probes.failures[:5]
    rate_samples = total.latencies_ns
    if workload == "catalog-cold":
        # one value per kind: ops per second is that of one round, and the
        # percentiles cover the I_n / I*_n grid (see workloads.CATALOG_KINDS)
        rate_samples = [statistics.median(v) for v in per_kind.values()]
        samples = [statistics.median(v) for k, v in per_kind.items()
                   if k not in workloads.EXCEPTIONAL_KINDS]
    else:
        samples = _request_means(total)
    metrics = {"setup_s": statistics.median(probes.times),
               "ops_per_s": _ops_per_s(rate_samples),
               "latency_p50_ms": common.percentile(samples, 50) / 1e6,
               "latency_p90_ms": common.percentile(samples, 90) / 1e6,
               "peak_rss_mb": common.peak_rss_mb()}
    return metrics, total, input_size, None


# ---------------------------------------------------------------------------
# tracing on: per-layer metrics


def _layer_metrics(summary: dict, counters: dict) -> dict:
    op_busy = sum(v["busy_s"] for k, v in summary.items() if k.startswith("op."))
    out = {}
    for metric, _, span, stat in _SPAN_METRICS:
        entry = summary.get(span)
        if entry is None:
            out[metric] = 0.0  # the workload never calls this layer
        elif stat == "share":
            out[metric] = entry["busy_s"] / op_busy if op_busy else 0.0
        else:
            out[metric] = entry[stat]
    out.update(counters)
    return out


def run_traced(workload: str, seed: int, seconds: float, tiny: bool):
    if workload == "catalog-cold":
        order = workloads.catalog_order(seed, tiny)
        plain = _catalog_child(False, tiny, order)
        traced = _catalog_child(True, tiny, order)
        spans = [tuple(s) for s in traced["spans"]]
        total = workloads.LoopResult()
        for p in (plain, traced):
            total.add(_pass_result(p))
        rates = [_ops_per_s(p["latencies_ns"]) for p in (plain, traced)]
        counters = {"kodaira.components_built": traced["components_built"]}
        input_size = f"{traced['input_size']}; one untraced and one traced pass"
    else:
        tracer = common.Tracer()
        state, total = _in_process(workload, seed, tiny, tracer)
        # alternate untraced and traced slices so that drift over the run
        # does not masquerade as tracing overhead
        slices = max(1, round(seconds / 2))
        plain, traced = workloads.LoopResult(), workloads.LoopResult()
        null, index = common.NullTracer(), 0
        for _ in range(slices):
            part, index = workloads.run_loop(state.ops, seconds / (2 * slices), null, index)
            plain.add(part)
            part, index = workloads.run_loop(state.ops, seconds / (2 * slices), tracer, index)
            traced.add(part)
        total.add(plain)
        total.add(traced)
        spans = tracer.spans
        rates = [_ops_per_s(r.latencies_ns) for r in (plain, traced)]
        counters = {"kodaira.components_built": state.components_built}
        if state.stdout_bytes:
            # bytes printed by one full cycle of the argument lists, so the
            # count does not grow with the number of ops that fitted
            for i in range(len(state.ops)):
                if i not in state.stdout_bytes:
                    workloads.run_op(state.ops[i], i, null, total, timed=False)
            counters["cli.stdout_bytes"] = sum(state.stdout_bytes.values())
        if state.draws:
            counters["arrangement.accepted_ratio"] = sum(state.draws.values()) / len(state.draws)
        input_size = state.input_size
    counters["trace.overhead_ratio"] = rates[1] / rates[0]
    summary = common.span_summary(spans)
    metrics = {name: 0.0 for name, _ in PER_LAYER}
    metrics.update(_layer_metrics(summary, counters))
    return metrics, total, input_size, (summary, spans)


# ---------------------------------------------------------------------------
# report


def _write_trace(workload: str, seed: int, meta: dict, summary: dict, spans) -> Path:
    common.OUT_DIR.mkdir(exist_ok=True)
    path = common.OUT_DIR / f"trace-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"meta": meta, "summary": summary,
                   "span_fields": ["name", "start_ns", "end_ns", "parent", "op_id"],
                   "spans": spans}, fh)
    return path


def _why(workload: str) -> str | None:
    try:
        declared = json.loads((common.ROOT / "BENCHMARK.json").read_text())["workloads"]
    except (OSError, ValueError, KeyError):
        return None
    return next((w["why"] for w in declared if w["name"] == workload), None)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=("catalog-cold", "pipeline-bundled", "pipeline-wide",
                                 "cli-session"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test input sizes")
    args = parser.parse_args(argv)
    try:
        common.use_source_tree()
    except common.MissingSourceError as exc:
        print(f"error: {exc}; run from the root of an ajimage checkout", file=sys.stderr)
        return 2
    # the "build": byte-compile up front so no timed import compiles
    compileall.compile_dir(str(common.PACKAGE), quiet=1)
    compileall.compile_dir(str(common.BENCH_DIR), quiet=1, maxlevels=0)
    runner = run_traced if args.trace else run_untraced
    try:
        metrics, total, input_size, traced = runner(args.workload, args.seed, args.seconds,
                                                    args.tiny)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta = {
        "workload": args.workload,
        "why": _why(args.workload),
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "tiny": args.tiny,
        "input_size": input_size,
        "ops_attempted": total.attempted,
        "ops_timed": len(total.latencies_ns),
        "ops_rejected": total.rejected,
        "client": "one client, closed loop, single thread",
        **common.host_facts(),
    }
    print("meta " + json.dumps(meta, sort_keys=True))
    units = dict(PER_LAYER if args.trace else END_TO_END)
    for name, value in metrics.items():
        print(f"  {name:42s} {value:14.6g} {units[name]}")
    ratio = total.failed / total.attempted if total.attempted else 0.0
    print(f"  {'failure_ratio':42s} {ratio:14.6g} ratio ({total.failed}/{total.attempted})")
    n = len(total.latencies_ns)
    if not args.trace and common.samples_beyond(n, 99) >= 10:
        p99 = common.percentile([x / 1e6 for x in total.latencies_ns], 99)
        print(f"  {'latency_p99_ms':42s} {p99:14.6g} ms ({common.samples_beyond(n, 99)}"
              f" of {n} samples beyond)")
    if traced is not None:
        summary, spans = traced
        print(f"  {'span':42s} {'calls':>8s} {'busy_s':>10s} {'self_s':>10s} {'p50_ms':>10s}")
        for name, s in summary.items():
            print(f"  {name:42s} {s['calls']:8d} {s['busy_s']:10.4f} {s['self_s']:10.4f}"
                  f" {s['p50_ms']:10.4f}")
        print(f"  spans written to {_write_trace(args.workload, args.seed, meta, summary, spans)}")
    for reason in total.reasons:
        print(f"  FAILED: {reason}")
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
