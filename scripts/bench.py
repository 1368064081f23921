#!/usr/bin/env python3
"""Acceptance criteria against their time gates, and workload metrics, as JSON.

Usage:
    python scripts/bench.py [--out BENCH.json] [--parent REV]

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

With `--parent REV` the file also compares against the git revision REV,
exported with `git archive` into a temporary directory (a paired design
after Kalibera and Jones, "Rigorous benchmarking in reasonable time", ISMM
2013).  Each default-tier run becomes a pair: the acceptance file runs once
in each tree, one process at a time, the side that goes first alternating
between pairs, and the reference kernel is timed before every run and once
after the last, so every run lies between two kernel timings.  Each
criterion's row adds the parent's runs and median, the ratio of the medians
(change / parent) and the number of pairs the change won; each workload row
adds the parent tree's last-line object, the two runs again alternating.
The slow tier runs in this tree only.

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
    return round(float(proc.stdout), 5)


def run_pytest(selection, timeout, root=ROOT):
    """One pytest run of the acceptance file of the tree at `root`: test name
    -> (outcome, seconds), or None when the run timed out.  The seconds are
    pytest's setup, call and teardown time, so criterion 1 includes the
    module fixture its gate counts."""
    env = child_env(root / "src")
    with tempfile.TemporaryDirectory() as tmp:
        xml = Path(tmp) / "report.xml"
        cmd = [sys.executable, "-m", "pytest", str(root / TESTS.relative_to(ROOT)), "-q",
               "-p", "no:cacheprovider", f"--junitxml={xml}"] + selection
        try:
            subprocess.run(cmd, cwd=root, env=env, capture_output=True, timeout=timeout)
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


def sides(i, trees):
    """The sides of run (pair) i in the order they run: the side that goes
    first alternates between pairs."""
    order = list(trees)
    return order if i % 2 == 0 else order[::-1]


def summary(times, outcomes):
    return {"outcome": "pass" if outcomes == {"pass"} else sorted(outcomes),
            "median_s": round(statistics.median(times), 3),
            "runs_s": [round(s, 3) for s in times]}


def default_tier(table, trees):
    """(criterion rows, side -> reference kernel seconds before each of its
    runs).  `trees` maps "change", and "parent" when comparing, to a root."""
    names = [n for n in table if n not in SLOW]
    samples = {side: {name: [] for name in names} for side in trees}
    verdicts = {side: {name: set() for name in names} for side in trees}
    references = {side: [] for side in trees}
    for i in range(RUNS):
        for side in sides(i, trees):
            references[side].append(reference_seconds())
            for name, (outcome, seconds) in run_pytest(["-m", "not slow"], None,
                                                       trees[side]).items():
                if name in samples[side]:  # a parent test this tree dropped is not compared
                    samples[side][name].append(seconds)
                    verdicts[side][name].add(outcome)
        print(f"default tier run {i + 1}/{RUNS} done", file=sys.stderr, flush=True)
    rows = []
    for name in names:
        number, gate = table[name]
        times = samples["change"][name]
        row = {"criterion": number, "test": name, "gate_s": gate,
               **summary(times, verdicts["change"][name])}
        before = samples.get("parent", {}).get(name)
        if before:  # a criterion the parent has
            row["parent"] = summary(before, verdicts["parent"][name])
            base = statistics.median(before)  # pytest reports whole milliseconds: may be 0
            row["ratio"] = round(statistics.median(times) / base, 3) if base else None
            row["pairs_won"] = sum(c < b for c, b in zip(times, before))
        rows.append(row)
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


def workload(name, seconds, root):
    """One `benchmark/run.py --trace 0` run of workload `name` in the tree at
    `root`: (exit code, its last-line object)."""
    cmd = [sys.executable, str(root / "benchmark" / "run.py"), "--workload", name,
           "--seed", str(WORKLOAD_SEED), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    return proc.returncode, json.loads(lines[-1]) if lines else {}


def workloads(trees):
    """One run per workload of BENCHMARK.json on each side of `trees`, the
    side that goes first alternating between workloads."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = []
    for i, item in enumerate(spec["workloads"]):
        name = item["name"]
        runs = {side: workload(name, spec["run_seconds"], trees[side]) for side in sides(i, trees)}
        code, last = runs["change"]
        row = {"workload": name, "seed": WORKLOAD_SEED, "exit_code": code, **last}
        if "parent" in runs:
            row["parent"] = {"exit_code": runs["parent"][0], **runs["parent"][1]}
        rows.append(row)
        print(f"workload {name}: exit {code}", file=sys.stderr, flush=True)
    return rows


def source_lines(root):
    return sum(path.read_bytes().count(b"\n") for path in (root / "src" / "dworklab").glob("*.py"))


def export(rev, into):
    """The tree of git revision `rev` under the directory `into`, and its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            capture_output=True, text=True, check=True).stdout.strip()
    archive = subprocess.run(["git", "archive", commit], cwd=ROOT, capture_output=True, check=True)
    subprocess.run(["tar", "-x", "-C", str(into)], input=archive.stdout, check=True)
    return into, commit


def report(table, parent=None, commit=None):
    trees = {"change": ROOT} if parent is None else {"change": ROOT, "parent": parent}
    criteria, references = default_tier(table, trees)
    out = {
        "host": {"python": platform.python_version(), "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "reference_kernel_s": references["change"],
    }
    if parent is not None:
        out["parent"] = {"commit": commit, "pairs": RUNS,
                         "reference_kernel_s": references["parent"],
                         "reference_kernel_after_last_run_s": reference_seconds(),
                         "source_lines": source_lines(parent)}
    out.update({
        "default_tier": criteria,
        "slow_tier": slow_tier(table),
        "workloads": workloads(trees),
        "source_lines": source_lines(ROOT),
    })
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default="BENCH.json", help="output file (default %(default)s)")
    ap.add_argument("--parent", metavar="REV",
                    help="git revision to time alternately with this tree and compare against")
    args = ap.parse_args(argv)
    table = gates()
    if args.parent is None:
        out = report(table)
    else:
        with tempfile.TemporaryDirectory() as tmp:
            out = report(table, *export(args.parent, Path(tmp)))
    Path(args.out).write_text(json.dumps(out, indent=1) + "\n")
    print(f"wrote {args.out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
