#!/usr/bin/env python3
"""List the lines of the package that acceptance, CLI and benchmark traffic
never runs.

Usage:
    python scripts/line_trace.py

A `sys.settrace` tracer records every line executed in `src/dworklab/*.py`
while this script

* runs pytest in-process on `tests/test_acceptance.py` and
  `tests/test_cli.py` (the default tier: pyproject's `-m 'not slow'`), then
* builds every workload of `benchmark.workloads` at seeds 0 and 1 and runs
  each cell as `cell.verdict(cell.run())`.

It then prints, per module, the executable lines (the `dis.findlinestarts`
of its code objects, nested ones included) that the trace never hit, as
line ranges.  What is left is error paths and code that only unit tests
run.  The benchmark is only read.  The exit status is pytest's.
"""

import dis
import importlib
import pathlib
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "dworklab"
MODULES = sorted(PACKAGE.glob("*.py"))
SEEDS = (0, 1)


def executable_lines(path: pathlib.Path) -> set:
    """The line starts of every code object compiled from `path`."""
    lines = set()
    stack = [compile(path.read_text(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, line in dis.findlinestarts(code) if line is not None)
        stack.extend(c for c in code.co_consts if hasattr(c, "co_code"))
    return lines


def ranges(lines) -> str:
    """Sorted line numbers as "a-b, c" runs."""
    runs = []
    for x in sorted(lines):
        if runs and x == runs[-1][1] + 1:
            runs[-1][1] = x
        else:
            runs.append([x, x])
    return ", ".join(str(a) if a == b else f"{a}-{b}" for a, b in runs)


def main() -> int:
    sys.path[:0] = [str(PACKAGE.parent), str(ROOT)]
    hits = {str(path): set() for path in MODULES}

    def trace(frame, event, arg):
        lines = hits.get(frame.f_code.co_filename)
        if lines is None:
            return None
        lines.add(frame.f_lineno)

        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local

        return local

    sys.settrace(trace)
    try:
        code = pytest.main([
            "-q", "-p", "no:cacheprovider",
            str(ROOT / "tests" / "test_acceptance.py"),
            str(ROOT / "tests" / "test_cli.py"),
        ])
        # imported here, under the trace and after sys.path names ./src
        workloads = importlib.import_module("benchmark.workloads")
        for seed in SEEDS:
            for workload in workloads.WORKLOADS:
                for cell in workloads.build(workload, seed):
                    cell.verdict(cell.run())
    finally:
        sys.settrace(None)

    print(f"pytest exit {int(code)}; benchmark seeds {', '.join(map(str, SEEDS))}")
    for path in MODULES:
        missed = executable_lines(path) - hits[str(path)]
        print(f"{path.name}: {len(missed)} never hit" + (f": {ranges(missed)}" if missed else ""))
    return int(code)


if __name__ == "__main__":
    sys.exit(main())
