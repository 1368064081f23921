#!/usr/bin/env python3
"""Run every congruence verification suite at the acceptance-scale grids and
print a one-line summary per suite, plus the canonical JSON reports on demand.

Usage:
    python scripts/run_verification.py [--json DIR] [--quick]
"""

import argparse
import pathlib
import sys
import time

from dworklab.harness import SUITES, JobSpec, canonical_json

GRIDS = {
    "hhw": dict(primes=(5, 7), s_max=2),
    "generalized-dwork": dict(primes=(5, 7), s_max=2),
    "asd": dict(primes=(3, 5, 7, 11, 13), s_max=3),
    "gauss": dict(primes=(3, 5, 7), bound=30),
    "dwork": dict(primes=(3, 5, 7), dimensions=(2, 3)),
    "super": dict(primes=(3, 5), s_max=2),
}

QUICK = {
    "hhw": dict(primes=(5,), s_max=1),
    "generalized-dwork": dict(primes=(5,), s_max=1),
    "asd": dict(primes=(5, 7), s_max=2),
    "gauss": dict(primes=(3, 5), bound=12),
    "dwork": dict(primes=(3, 5), dimensions=(2,)),
    "super": dict(primes=(3,), s_max=1),
}


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--json", help="directory for per-suite JSON reports")
    ap.add_argument("--quick", action="store_true", help="small grids")
    args = ap.parse_args()

    failures = 0
    for name, grid in GRIDS.items():
        params = QUICK[name] if args.quick else grid
        t0 = time.time()
        report = SUITES[name](JobSpec(**params))
        status = "PASS" if report.passed else "FAIL"
        n_skip = sum(1 for c in report.cells if c.get("status") == "skip")
        print(
            f"{name:>18}: {status}  "
            f"({len(report.cells)} cells, {n_skip} skipped, {time.time() - t0:5.1f}s)"
        )
        if not report.passed:
            failures += 1
        if args.json:
            outdir = pathlib.Path(args.json)
            outdir.mkdir(parents=True, exist_ok=True)
            (outdir / f"{name}.json").write_text(
                canonical_json(report.to_json()) + "\n"
            )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
