"""Run-to-run spread of the end-to-end metrics, per workload.

    python3 benchmark/spread.py [--workloads a,b] [--seeds 1-10]

Runs the benchmark once per seed and workload, one run at a time, with the
run length from BENCHMARK.json.  For each metric it prints the median, the
quartiles and the spread, (q3 - q1) / median as statistics.quantiles gives
them, next to the metric's bound.  The last line is a JSON record of every
run with nproc, the Python version and the seeds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text: str):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seeds", default="1-10", type=parse_seeds)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    record = {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "seconds": spec["run_seconds"],
        "seeds": args.seeds,
        "runs": {},
        "spread": {},
    }
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(spec["run_seconds"]),
                   "--trace", "0"]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if proc.returncode != 0 or not result["correct"]:
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                ok = False
            values = {k: v["value"] for k, v in result["metrics"].items()}
            runs.append({"seed": seed, "failed": result["failed"],
                         "attempted": result["attempted"], "metrics": values})
            print(f"{workload} seed {seed}: "
                  + " ".join(f"{k}={v:.4f}" for k, v in values.items()), flush=True)
        record["runs"][workload] = runs
        record["spread"][workload] = {}
        for name, bound in bounds.items():
            xs = [r["metrics"][name] for r in runs]
            q1, med, q3 = statistics.quantiles(xs, n=4)
            spread = (q3 - q1) / med
            record["spread"][workload][name] = {
                "median": med, "q1": q1, "q3": q3, "spread": spread, "bound": bound}
            flag = "ok" if spread < bound / 3 else ("WIDE" if spread < bound else "OVER")
            print(f"  {workload:15s} {name:12s} median {med:11.5f}  q1 {q1:11.5f}  "
                  f"q3 {q3:11.5f}  spread {spread:7.2%}  bound {bound:.0%}  {flag}",
                  flush=True)
    print(json.dumps(record))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
