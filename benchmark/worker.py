"""One workload process: build the seeded inputs, then run verified passes.

Started by run.py, never by hand.  Prints READY once set-up is done (run.py
times process start to READY as one set-up sample), then the time of the
reference kernel; with --setup-only it exits there.  Otherwise it runs whole
passes over the cell grid within a budget of --seconds: it starts no pass
that its median pass time says would end past the budget, but always runs at
least one (with --trace 1 untraced and traced passes alternate, at least one
of each).  It prints one JSON line of raw measurements for run.py to reduce.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
import traceback
from fractions import Fraction
from pathlib import Path

import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"
TRACE_DIR = HERE / "out"
REFERENCE_ROUNDS = 4000  # about 4 ms on a 2-core Xeon VM, Python 3.11


def run_cell(cell, golden: dict | None):
    """(status, latency_s, note) of one cell.  The latency covers the library
    call and the exact check of its output; the digest comparison is not timed."""
    t0 = time.perf_counter()
    try:
        out = cell.run()
        status = cell.verdict(out)
    except Exception:  # a raising cell is a failed cell; the pass goes on
        return "fail", time.perf_counter() - t0, traceback.format_exc()
    latency = time.perf_counter() - t0
    if status not in ("ok", "skip", "fail"):
        return "fail", latency, f"verdict returned {status!r}"
    if status == "fail":
        return status, latency, "congruence verdict is false"
    if golden is not None:
        expected = golden.get(cell.name)
        actual = workloads.digest(out)
        if actual != expected:
            return "fail", latency, f"digest {actual} != golden {expected}"
    return status, latency, ""


def reference_kernel() -> float:
    """Seconds taken by a fixed pure-Python kernel that shares no code with
    dworklab: big-integer products mod a prime, dict updates on tuple keys
    and Fraction sums, the operations dworklab's own time goes to.  Timed
    next to every cell, it tells how fast the host runs Python right then."""
    t0 = time.perf_counter()
    modulus = (1 << 127) - 1
    x, table, total = 3, {}, Fraction(0)
    for i in range(REFERENCE_ROUNDS):
        x = x * x % modulus
        key = (i % 7, i % 5)
        table[key] = table.get(key, 0) + x
        if i % 8 == 0:
            total += Fraction(x % 1009, i + 1)
    return time.perf_counter() - t0


def run_pass(cells, golden, reference: bool):
    """(wall_s, cell results, reference kernel times).  With `reference`, the
    kernel runs before the first cell and after every cell, so each cell lies
    between two kernel times; wall_s leaves the kernel out."""
    refs = [reference_kernel()] if reference else []
    t0 = time.perf_counter()
    results = {}
    for cell in cells:
        results[cell.name] = run_cell(cell, golden)
        if reference:
            refs.append(reference_kernel())
    return time.perf_counter() - t0 - sum(refs[1:]), results, refs


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    cells = workloads.build(args.workload, args.seed)
    print("READY", flush=True)
    # after READY, so set-up is timed without it
    print(f"REFERENCE {statistics.median(reference_kernel() for _ in range(3))!r}",
          flush=True)
    if args.setup_only:
        return 0
    golden = None
    if args.seed == 0:
        golden = json.loads(GOLDEN.read_text())[args.workload]

    tracer = Tracer() if args.trace else None
    passes, layers, took = [], [], []
    start = time.perf_counter()
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        same_kind = [t for p, t in zip(passes, took) if p["traced"] == traced]
        if same_kind and (
            time.perf_counter() - start + statistics.median(same_kind) > args.seconds
        ):
            break
        t0 = time.perf_counter()
        if traced:
            tracer.reset()
            with tracer:
                wall, results, refs = run_pass(cells, golden, reference=False)
            layers.append(tracer.summary())
        else:
            wall, results, refs = run_pass(cells, golden, reference=True)
        passes.append({"traced": traced, "wall": wall, "cells": results, "refs": refs})
        took.append(time.perf_counter() - t0)
    if tracer is not None:
        tracer.write(TRACE_DIR / f"{args.workload}-seed{args.seed}.spans")
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"passes": passes, "layers": layers, "rss_kb": rss_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
