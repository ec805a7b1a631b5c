"""Check that the tier-1 suite reaches every `raise` in src/ajimage.

Runs the tier-1 suite in this process under sys.settrace, recording the
lines that run in src/ajimage only, and finds every raise statement there
with ast.  A raise none of whose lines ran is reported; it fails the check
unless ALLOWLIST names it by module and message start, with the reason no
test reaches it.  Tracing slows every Hypothesis example, so the script
loads a derandomized profile with no deadline before the suite is
collected.

    python tests/raise_reach.py [extra pytest arguments]

Exit status: 0 when every raise ran or is allowlisted; 1 when some raise
is neither, when an allowlist entry matches no raise statement, or when
the suite itself fails (an incomplete run proves nothing).
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ajimage"

# (module, start of the message as the source writes it, f-string fields in
# braces) -> why no tier-1 test reaches that raise.  _validate's fault
# detectors are not listed: tampering tests reach them.
ALLOWLIST = {
    ("arrangement", "L_1, L_2 and L_3 are concurrent"):
        "cannot fire on sign -1 (generate_arrangement's docstring factors the"
        " determinant); on sign +1 it needs a rational point of"
        " y^2 = pi^6 + 34 pi^3 + 1 with pi = u1 u2, and a search over pi = a/b,"
        " |a|, b <= 3000, found only pi = 1, where u1 = u2 = 1 or u is irrational",
    ("kodaira", "catalog graph for {kind} breaks the fiber relation"):
        "catalog self-check: every graph of _graph satisfies the fiber relation",
    ("kodaira", "catalog for {kind}: simple components not distinct"):
        "catalog self-check: the simple components of a Kodaira fiber are distinct classes",
    ("kodaira", "catalog for {kind}: simple components miss some classes"):
        "catalog self-check: the simple components of a Kodaira fiber cover the group",
}


def message(node: ast.Raise) -> str:
    """The raise's message as the source writes it: the first argument's
    string or f-string template, else the raised expression's source."""
    exc = node.exc
    if exc is None:
        return "raise"
    if isinstance(exc, ast.Call) and exc.args:
        arg = exc.args[0]
        if isinstance(arg, ast.Constant) and isinstance(arg.value, str):
            return arg.value
        if isinstance(arg, ast.JoinedStr):
            return "".join(
                part.value if isinstance(part, ast.Constant)
                else "{" + ast.unparse(part.value) + "}"
                for part in arg.values
            )
    return ast.unparse(exc)


def raises(path: Path):
    """(first line, last line, exception source, message) of every raise."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, node.end_lineno, ast.unparse(exc) if exc else "", message(node)


class _TracedProfile:
    """pytest plugin: a Hypothesis profile loaded before the test modules are
    collected.  No deadline, since tracing slows every example; derandomized,
    so a raise that some property reaches is reached on every run, not on
    some seeds only."""

    @staticmethod
    def pytest_configure(config):
        from hypothesis import settings

        settings.register_profile("raise-reach", deadline=None, derandomize=True)
        settings.load_profile("raise-reach")


def run_suite(args: list[str]) -> tuple[int, dict[str, set[int]]]:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        lines = ran.setdefault(filename, set())
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local

        return local

    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        code = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *args],
                           plugins=[_TracedProfile()])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), ran


def main(args: list[str]) -> int:
    # the suite's own subprocesses (python -m ajimage) import from src too
    src = str(ROOT / "src")
    os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    sys.path.insert(0, src)
    import ajimage

    if Path(ajimage.__file__).resolve().parent != PACKAGE:
        print(f"ajimage imports from {ajimage.__file__}, not from {PACKAGE}")
        return 1
    code, ran = run_suite(args)
    if code != 0:
        print(f"raise_reach: the suite exited {code}; reachability is not checked")
        return 1
    unreached, used, total = [], set(), 0
    for path in sorted(PACKAGE.glob("*.py")):
        lines = ran.get(str(path), set())
        for first, last, name, text in raises(path):
            total += 1
            if lines.intersection(range(first, last + 1)):
                continue
            key = next((k for k in ALLOWLIST if k[0] == path.stem and text.startswith(k[1])), None)
            if key is None:
                unreached.append(f"{path.stem}.py:{first}: raise {name}({text!r})")
            else:
                used.add(key)
    stale = [k for k in ALLOWLIST if k not in used]
    print(f"raise_reach: {total} raise statements, {total - len(used) - len(unreached)} reached,"
          f" {len(used)} allowlisted")
    for line in unreached:
        print(f"unreached: {line}")
    for module, text in stale:
        # a raise that a test now reaches can leave the list
        print(f"allowlisted but reached or gone: {module}: {text!r}")
    gone = [k for k in stale if not any(
        text.startswith(k[1]) for *_, text in raises(PACKAGE / f"{k[0]}.py"))]
    for module, text in gone:
        print(f"allowlist entry matches no raise statement: {module}: {text!r}")
    return 1 if unreached or gone else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
