"""Run the benchmark on several seeds and report how much each metric spreads.

    python3 perfbench/steady.py --workloads catalog-cold,cli-session \
        --seeds 1-10 --seconds 36 [--series 2] [--out perfbench/out/steady.json]

For every workload and end-to-end metric it prints the median, the first
and third quartiles (statistics.quantiles, n=4) and the spread
(Q3 - Q1) / median, next to the metric's bound from BENCHMARK.json.  With
``--series 2`` it runs the whole set twice, one series after the other,
and also prints by how much the second series' median is worse than the
first's (in the metric's "better" direction), which must stay within the
bound.  Runs are sequential, one at a time.  ``--out`` writes every run's
metrics, the summaries, the agreement and the host facts as JSON (the
format of baseline.json).
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))

import common  # noqa: E402


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = map(int, text.split("-"))
        return list(range(lo, hi + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, float]:
    """The result line of one run, and the run's wall time in seconds."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1]), time.perf_counter() - start


def run_series(workloads: list[str], seeds: list[int], seconds: float, bounds: dict) -> dict:
    report = {}
    for workload in workloads:
        runs = []
        for seed in seeds:
            result, wall_s = run_once(workload, seed, seconds, 0)
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
            runs.append({"seed": seed, "correct": result["correct"], "wall_s": wall_s,
                         "attempted": result["attempted"], "failed": result["failed"],
                         **{k: v["value"] for k, v in result["metrics"].items()}})
            print(f"{workload} seed {seed} ({wall_s:.1f} s): " + " ".join(
                f"{k}={v['value']:.5g}" for k, v in result["metrics"].items()), flush=True)
        summary = {}
        for name in bounds:
            values = [r[name] for r in runs]
            q1, _, q3 = statistics.quantiles(values, n=4)
            median = statistics.median(values)
            summary[name] = {"median": median, "q1": q1, "q3": q3,
                             "spread": (q3 - q1) / median, "bound": bounds[name]}
            print(f"  {name:16s} median {median:.5g}  q1 {q1:.5g}  q3 {q3:.5g}"
                  f"  spread {summary[name]['spread']:.3f}  (bound {bounds[name]})", flush=True)
        report[workload] = {"runs": runs, "summary": summary}
    return report


def agreement(first: dict, second: dict, bench: dict) -> dict:
    """Per workload and metric: how much worse the second median is than the
    first, as a share of the first (negative when it is better)."""
    out = {}
    for workload, series in first.items():
        out[workload] = {}
        for metric in bench["end_to_end"]:
            name = metric["name"]
            m1 = series["summary"][name]["median"]
            m2 = second[workload]["summary"][name]["median"]
            worse = (m2 - m1) / m1 if metric["better"] == "lower" else (m1 - m2) / m1
            out[workload][name] = {"median_1": m1, "median_2": m2, "worse_by": worse,
                                   "bound": metric["bound"], "within": worse <= metric["bound"]}
            print(f"{workload:16s} {name:16s} {m1:.5g} -> {m2:.5g}  worse by {worse:+.3f}"
                  f"  (bound {metric['bound']})", flush=True)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--series", type=int, choices=(1, 2), default=1)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    workloads, seeds = args.workloads.split(","), seed_list(args.seeds)
    series = []
    for i in range(args.series):
        print(f"series {i + 1}", flush=True)
        series.append(run_series(workloads, seeds, args.seconds, bounds))
    out = {"host": common.host_facts(), "seconds": args.seconds, "seeds": args.seeds,
           "series": series}
    if args.series == 2:
        out["agreement"] = agreement(series[0], series[1], bench)
    if args.out:
        Path(args.out).write_text(json.dumps(out, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
