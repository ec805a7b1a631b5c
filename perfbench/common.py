"""Shared plumbing for the benchmark: paths, tracing, statistics, host facts.

Everything here is standard library only.  The benchmark runs from the root
of a source checkout and imports the library straight from ``src/``.
"""

from __future__ import annotations

import os
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter_ns

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PACKAGE = SRC / "ajimage"
OUT_DIR = BENCH_DIR / "out"


class MissingSourceError(RuntimeError):
    """The checkout holds no library source to benchmark."""


def use_source_tree() -> None:
    """Put ``src/`` first on the import path, or fail if it is absent."""
    if not (PACKAGE / "__init__.py").is_file():
        raise MissingSourceError(f"no library source at {PACKAGE}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


# ---------------------------------------------------------------------------
# tracing


class NullTracer:
    """Tracing off: a call is just the call."""

    enabled = False

    def call(self, name, fn, *args):
        return fn(*args)

    def begin_op(self, op_id, kind):
        pass

    def end_op(self, start_ns, end_ns):
        pass


class Tracer:
    """Spans kept in memory as (name, start_ns, end_ns, parent, op_id).

    ``parent`` is the index of the enclosing op span, or None for calls
    made outside any op (set-up, or the SNF probes of the catalog run).
    Op spans are named ``op.<kind>``.
    """

    enabled = True

    def __init__(self):
        self.spans: list[tuple] = []
        self._parent = None
        self._op_id = None
        self._op_kind = None

    def call(self, name, fn, *args):
        start = perf_counter_ns()
        try:
            return fn(*args)
        finally:
            self.spans.append((name, start, perf_counter_ns(), self._parent, self._op_id))

    def begin_op(self, op_id, kind):
        # the op span is appended at end_op; reserve its index now so that
        # child calls can point at it
        self._parent = len(self.spans)
        self.spans.append(None)
        self._op_id = op_id
        self._op_kind = kind

    def end_op(self, start_ns, end_ns):
        self.spans[self._parent] = (f"op.{self._op_kind}", start_ns, end_ns, None, self._op_id)
        self._parent = None
        self._op_id = None


def span_summary(spans) -> dict:
    """Per span name: calls, busy time, self time, median and longest duration.

    Self time is a span's duration minus the time covered by its children.
    """
    child_ns = [0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child_ns[parent] += end - start
    by_name: dict[str, list] = {}
    for idx, (name, start, end, parent, _) in enumerate(spans):
        entry = by_name.setdefault(name, [[], 0])
        entry[0].append(end - start)
        entry[1] += end - start - child_ns[idx]
    out = {}
    for name, (durations, self_ns) in sorted(by_name.items()):
        out[name] = {
            "calls": len(durations),
            "busy_s": sum(durations) / 1e9,
            "self_s": self_ns / 1e9,
            "p50_ms": statistics.median(durations) / 1e6,
            "max_ms": max(durations) / 1e6,
        }
    return out


# ---------------------------------------------------------------------------
# statistics


def percentile(values, p: float) -> float:
    """Linear-interpolated percentile (the 'inclusive' method), p in [0, 100]."""
    data = sorted(values)
    if not data:
        raise ValueError("no samples")
    if len(data) == 1:
        return float(data[0])
    pos = (len(data) - 1) * p / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def samples_beyond(n: int, p: float) -> int:
    """How many of n samples lie above the p-th percentile."""
    return n - 1 - int((n - 1) * p / 100)


def peak_rss_mb() -> float:
    """Largest resident set of this process or any child it waited for."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024  # ru_maxrss is in KiB on Linux


# ---------------------------------------------------------------------------
# host facts recorded with every run (read only)


def git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git work tree."""
    if not (ROOT / ".git").exists():
        return None
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() or None


def host_facts() -> dict:
    import platform

    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = None
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "usable_cpus": usable,
        "machine": platform.machine(),
        "loadavg_1m": os.getloadavg()[0],
    }
