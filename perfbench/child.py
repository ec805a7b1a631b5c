"""Child-process entry points of the benchmark; run.py starts these.

    child.py setup WORKLOAD SEED TINY   do a workload's set-up as a fresh
                                        interpreter would, print one JSON line
    child.py catalog TRACE TINY KIND... build each KIND once, cold, in the
                                        given order; print one JSON line with
                                        per-op times (and spans)

Each child prints exactly one JSON line on stdout and exits.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import common  # noqa: E402

common.use_source_tree()

import workloads  # noqa: E402


def setup(workload: str, seed: int, tiny: bool) -> dict:
    state = workloads.SETUP[workload](seed, common.NullTracer(), tiny)
    return {"failures": state.setup_failures}


def catalog(trace: bool, tiny: bool, kinds: list[str]) -> dict:
    tracer = common.Tracer() if trace else common.NullTracer()
    state = workloads.setup_catalog_cold(0, tracer, tiny, kinds)
    result = workloads.LoopResult()
    for i, op in enumerate(state.ops):
        data = workloads.run_op(op, i, tracer, result)
        if trace and data is not None:
            bad = workloads.smith_probe(op.label, data, tracer)
            if bad:
                result.failed += 1
                result.reasons.append(bad)
    return {
        "input_size": state.input_size,
        "labels": [op.label for op in state.ops],
        "latencies_ns": result.latencies_ns,
        "attempted": result.attempted,
        "failed": result.failed,
        "rejected": result.rejected,
        "reasons": result.reasons,
        "components_built": state.components_built,
        "spans": tracer.spans if trace else [],
    }


def main(argv: list[str]) -> int:
    if argv[0] == "setup":
        out = setup(argv[1], int(argv[2]), argv[3] == "1")
    elif argv[0] == "catalog":
        out = catalog(argv[1] == "1", argv[2] == "1", argv[3:])
    else:
        print(f"unknown child command {argv[0]!r}", file=sys.stderr)
        return 2
    print(json.dumps(out), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
