#!/usr/bin/env python3
"""Acceptance criteria against their time gates, and workload metrics, as JSON.

Usage:
    python scripts/bench.py [--out BENCH.json]

Runs tests/test_acceptance.py under pytest in fresh subprocesses, with
./src on PYTHONPATH:

* the default tier (criteria 1-12, with the n = 3 level-3 check of
  criterion 9) five times; the file records each criterion's time in every
  run and their median.  Before each run it
  times `benchmark/worker.reference_kernel`, a fixed pure-Python kernel, in
  a fresh interpreter (the median of five calls).  The host's Python speed
  drifts by up to 1.5x over time, so two BENCH files made apart compare by the
  ratio of a criterion's time to the reference time, not by raw seconds;
* the slow tier (criterion 13) once.  Its outcome is "pass", the name of
  the exception the test raised, or "over budget" when the test exceeds its
  gate (a run is cut off 60 s after the gate).

Then it runs `benchmark/run.py --trace 0` once per workload of
BENCHMARK.json, at seed 0 (the acceptance inputs, checked against the golden
digests) for BENCHMARK.json's run_seconds, and records the JSON object each
run prints on its last line: the end-to-end metrics with correct, attempted
and failed.

It also records `source_lines`, the total that `wc -l src/dworklab/*.py`
prints, so a refactor's line count comes from the same run as its times.

Gates and criterion numbers are read from the `_report(...)` call in each
test's source, so a gate is never restated here.  The output also names the
host and Python version: the times are only comparable on one machine.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from xml.etree import ElementTree

ROOT = Path(__file__).resolve().parent.parent
TESTS = ROOT / "tests" / "test_acceptance.py"
SLOW = ("test_criterion_13_alpha3_cross_family_ratio",)
RUNS = 5  # default-tier runs; each criterion's time is their median
WORKLOAD_SEED = 0


def gates():
    """test name -> (criterion number, gate in seconds), from the source."""
    out = {}
    for node in ast.parse(TESTS.read_text()).body:
        if isinstance(node, ast.FunctionDef) and node.name.startswith("test_criterion_"):
            for call in ast.walk(node):
                if (isinstance(call, ast.Call) and isinstance(call.func, ast.Name)
                        and call.func.id == "_report"):
                    out[node.name] = (call.args[0].value, call.args[3].value)
    return out


def child_env(*paths):
    """The environment with `paths` in front of PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(p) for p in paths] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def reference_seconds():
    """The median of five `benchmark/worker.reference_kernel` calls, in a
    fresh interpreter with benchmark/ and src/ on PYTHONPATH."""
    code = ("import statistics; from worker import reference_kernel; "
            "print(statistics.median(reference_kernel() for _ in range(5)))")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT, capture_output=True,
                          text=True, check=True, env=child_env(ROOT / "benchmark", ROOT / "src"))
    return float(proc.stdout)


def run_pytest(selection, timeout):
    """One pytest run of the acceptance file: test name -> (outcome, seconds),
    or None when the run timed out.  The seconds are pytest's setup, call
    and teardown time, so criterion 1 includes the module fixture its gate
    counts."""
    env = child_env(ROOT / "src")
    with tempfile.TemporaryDirectory() as tmp:
        xml = Path(tmp) / "report.xml"
        cmd = [sys.executable, "-m", "pytest", str(TESTS), "-q", "-p", "no:cacheprovider",
               f"--junitxml={xml}"] + selection
        try:
            subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            return None
        cases = ElementTree.parse(xml).getroot().iter("testcase")
    out = {}
    for case in cases:
        problem = case.find("failure")
        if problem is None:
            problem = case.find("error")
        if case.find("skipped") is not None:
            continue
        if problem is None:
            outcome = "pass"
        elif "exceeded its time budget" in problem.get("message", ""):
            outcome = "over budget"
        else:
            # "dworklab.linalg.RankDeficiencyError: ..." -> RankDeficiencyError
            outcome = problem.get("message", "").split(":")[0].rsplit(".", 1)[-1] or "failed"
        out[case.get("name")] = (outcome, float(case.get("time")))
    return out


def default_tier(table):
    """(criterion rows, reference kernel seconds before each run)."""
    names = [n for n in table if n not in SLOW]
    samples = {name: [] for name in names}
    verdicts = {name: set() for name in names}
    references = []
    for i in range(RUNS):
        references.append(round(reference_seconds(), 5))
        for name, (outcome, seconds) in run_pytest(["-m", "not slow"], None).items():
            samples[name].append(seconds)
            verdicts[name].add(outcome)
        print(f"default tier run {i + 1}/{RUNS} done", file=sys.stderr, flush=True)
    rows = []
    for name in names:
        number, gate = table[name]
        times = samples[name]
        rows.append({
            "criterion": number, "test": name, "gate_s": gate,
            "outcome": "pass" if verdicts[name] == {"pass"} else sorted(verdicts[name]),
            "median_s": round(statistics.median(times), 3),
            "runs_s": [round(s, 3) for s in times],
        })
    return rows, references


def slow_tier(table):
    rows = []
    for name in SLOW:
        number, gate = table[name]
        t0 = time.perf_counter()
        results = run_pytest(["-m", "slow", "-k", name], gate + 60)
        wall = time.perf_counter() - t0
        outcome, seconds = ("over budget", None) if results is None else results[name]
        rows.append({
            "criterion": number, "test": name, "gate_s": gate, "outcome": outcome,
            "seconds": None if seconds is None else round(seconds, 3),
            "process_wall_s": round(wall, 1),
        })
        print(f"{name}: {outcome} ({wall:.1f} s)", file=sys.stderr, flush=True)
    return rows


def workloads():
    """One `benchmark/run.py --trace 0` run per workload: its last-line object."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = []
    for item in spec["workloads"]:
        name = item["name"]
        cmd = [sys.executable, str(ROOT / "benchmark" / "run.py"), "--workload", name,
               "--seed", str(WORKLOAD_SEED), "--seconds", str(spec["run_seconds"]),
               "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        last = json.loads(lines[-1]) if lines else {}
        rows.append({"workload": name, "seed": WORKLOAD_SEED, "exit_code": proc.returncode,
                     **last})
        print(f"workload {name}: exit {proc.returncode}", file=sys.stderr, flush=True)
    return rows


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH.json", help="output file (default %(default)s)")
    args = ap.parse_args(argv)
    table = gates()
    criteria, references = default_tier(table)
    report = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "reference_kernel_s": references,
        "default_tier": criteria,
        "slow_tier": slow_tier(table),
        "workloads": workloads(),
        "source_lines": sum(path.read_bytes().count(b"\n")
                            for path in (ROOT / "src" / "dworklab").glob("*.py")),
    }
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
