"""dworklab benchmark: time to a verified result on four exact workloads.

    python3 benchmark/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout.  The library is imported from ./src as
source; nothing is installed.  Each workload runs in single-threaded worker
processes, one process at a time.  With --trace 0, set-up-only processes are
started first, then one measuring process verifies the whole cell grid once
per pass, pass after pass, within what is left of --seconds.  Set-up is
timed from process start to the first timed cell in every process.  With
--trace 1, one process alternates untraced and traced passes within
--seconds.

A fixed pure-Python reference kernel is timed before and after every cell
and in every process.  The end-to-end times are scaled by REFERENCE_S over
the kernel's time at that moment: they read as times on a host that runs the
kernel in REFERENCE_S, so a shared host's changing speed cancels out.  The
unscaled times are printed beside them.

--trace 0 prints the end-to-end metrics, --trace 1 the per-layer metrics of
the outside-in tracer.  The last line of standard output is one JSON object
with the keys correct, attempted, failed and metrics.  The exit code is 1
when any cell failed (raised, gave a false verdict, or at seed 0 differed
from its golden digest), and 2 when the benchmark cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_PROBES = 6  # set-up-only processes, besides the measuring one
WORKER_TIMEOUT_S = 160
# Time of worker.reference_kernel on a quiet host (a 2-core Xeon VM, Python
# 3.11.7).  Times are reported scaled to that speed: see cell_medians.
REFERENCE_S = 0.004

# Predicted dominant layer per workload (RATIONALE.md): the traced span with
# the largest self time.
DOMINANT = {
    "integer-fibres": "laurent.coefficient_of_power",
    "t-expansions": "cartier.expand_vertex",
    "higher-hw": "linalg.tpoly_det",
    "cy-pipeline": "arith.TruncatedSeries.mul",
}


class WorkerError(RuntimeError):
    pass


def start_worker(args, seconds: float, setup_only: bool = False):
    """Start a worker and wait for READY and its reference kernel time;
    returns (process, set-up seconds, reference kernel seconds)."""
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    # Let the first process write the bytecode caches (git-ignored), so that
    # set-up is timed as a user meets it after the first import, whatever the
    # caller's environment says.
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    ready = proc.stdout.readline()
    setup = time.perf_counter() - t0
    word, _, reference = proc.stdout.readline().partition(" ")
    if ready.strip() != "READY" or word != "REFERENCE":
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker set-up failed (exit {proc.returncode})")
    return proc, setup, float(reference)


def finish_worker(proc) -> str:
    try:
        out, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise WorkerError(f"worker exceeded {WORKER_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise WorkerError(f"worker exited {proc.returncode}")
    return out


def tail(samples):
    """(value, percentile): the highest percentile that leaves at least ten
    samples above it; with fewer than eleven samples, the maximum."""
    xs = sorted(samples)
    n = len(xs)
    if n < 11:
        return xs[-1], 100.0
    return xs[n - 11], 100.0 * (n - 10) / n


def measure(args):
    """Run the workers; returns (passes, traced-pass layers, set-up samples as
    (seconds, reference kernel seconds), peak RSS in KiB of the measuring
    process)."""
    start = time.perf_counter()
    setups = []
    if not args.trace:
        for _ in range(SETUP_PROBES):
            proc, *setup = start_worker(args, 0, setup_only=True)
            finish_worker(proc)
            setups.append(setup)
    budget = args.seconds - (time.perf_counter() - start) - statistics.median(
        [s for s, _ in setups] or [0])
    proc, *setup = start_worker(args, max(budget, 0.0))
    raw = json.loads(finish_worker(proc).strip().splitlines()[-1])
    setups.append(setup)
    return raw["passes"], raw["layers"], setups, raw["rss_kb"]


def cell_medians(passes, statuses, scaled=True):
    """Each cell's median latency over the passes, for cells whose status is
    in `statuses` in every pass.  Scaled, each latency is first multiplied by
    REFERENCE_S over the mean of the reference kernel times just before and
    just after the cell, which takes out how fast the host ran Python right
    then (RATIONALE.md, The reference kernel)."""
    runs = {}
    for p in passes:
        refs = p["refs"]
        for i, (name, (status, latency, _)) in enumerate(p["cells"].items()):
            if scaled:
                latency *= REFERENCE_S / ((refs[i] + refs[i + 1]) / 2)
            runs.setdefault(name, []).append(latency if status in statuses else None)
    return {name: statistics.median(v) for name, v in runs.items() if None not in v}


def end_to_end(passes, setups, rss):
    # one latency sample per verified cell, so the sample set is the cell
    # grid whatever the number of passes in the run
    samples = list(cell_medians(passes, ("ok",)).values())
    tail_value, tail_pct = tail(samples)
    grid = cell_medians(passes, ("ok", "skip"))
    unscaled = cell_medians(passes, ("ok", "skip"), scaled=False)
    setup = statistics.median(s * REFERENCE_S / ref for s, ref in setups)
    metrics = {
        "setup_s": (setup, "s"),
        "solve_s": (sum(grid.values()), "s"),
        "cell_p50_s": (statistics.median(samples), "s"),
        "cell_tail_s": (tail_value, "s"),
        "peak_rss_mb": (rss / 1024.0, "MB"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} process starts; unscaled "
                   f"{statistics.median(s for s, _ in setups):.4f} s",
        "solve_s": f"sum over {len(grid)} cells of each one's median of {len(passes)} "
                   f"passes; unscaled {sum(unscaled.values()):.4f} s",
        "cell_p50_s": f"{len(samples)} cell samples, each the median of {len(passes)} passes",
        "cell_tail_s": f"p{tail_pct:.1f} of {len(samples)} cell samples",
        "peak_rss_mb": "ru_maxrss of the measuring process",
    }
    return metrics, notes


def per_layer(passes, layers, workload):
    plain = [p["wall"] for p in passes if not p["traced"]]
    traced = [p["wall"] for p in passes if p["traced"]]
    last = layers[-1]
    metrics = {}
    for name, values in last.items():
        if name == "trace.counting":
            continue
        for key, value in values.items():
            if key == "self_s":
                value = min(layer[name]["self_s"] for layer in layers)
                unit = "s"
            elif key == "complete_ratio":
                unit = "ratio"
            else:
                unit = "count"
            metrics[f"{name}.{key}"] = (value, unit)
    accounted = [
        sum(values["self_s"] for values in layer.values()) for layer in layers
    ]
    unaccounted = [wall - acc for wall, acc in zip(traced, accounted)]
    metrics["trace.overhead_s"] = (min(traced) - min(plain), "s")
    metrics["trace.unaccounted_s"] = (min(unaccounted), "s")

    solve = min(traced)
    self_s = {k[: -len(".self_s")]: v for k, (v, _) in metrics.items() if k.endswith(".self_s")}
    top = max(self_s, key=self_s.get)
    predicted = DOMINANT[workload]
    verdict = "holds" if top == predicted else f"does NOT hold: {top} is larger"
    notes = [
        f"fastest traced pass {solve:.4f} s of {len(traced)}, "
        f"fastest untraced pass {min(plain):.4f} s of {len(plain)}",
        f"predicted dominant layer {predicted}: {self_s[predicted] / solve:.1%} of "
        f"traced solve time; prediction {verdict}",
    ]
    return metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=tuple(DOMINANT))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    if not (SRC / "dworklab" / "__init__.py").is_file():
        print(f"benchmark: no dworklab sources under {SRC}", file=sys.stderr)
        return 2

    try:
        passes, layers, setups, rss = measure(args)
    except (WorkerError, json.JSONDecodeError, IndexError) as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2

    attempted = sum(len(p["cells"]) for p in passes)
    failures = [
        (name, note)
        for p in passes
        for name, (status, _, note) in p["cells"].items()
        if status == "fail"
    ]
    for name, note in failures:
        print(f"FAILED {name}: {note}", file=sys.stderr)

    if not any(status == "ok" for p in passes for status, _, _ in p["cells"].values()):
        print("benchmark: no cell verified, so there is no latency to report",
              file=sys.stderr)
        return 1

    print(
        f"# workload={args.workload} seed={args.seed} seconds={args.seconds} "
        f"trace={args.trace} nproc={os.cpu_count()} "
        f"python={platform.python_version()}"
    )
    if args.trace:
        metrics, notes = per_layer(passes, layers, args.workload)
        for name, (value, unit) in metrics.items():
            print(f"{name:48s} {value:>16.6g} {unit}")
        for note in notes:
            print(f"# {note}")
    else:
        metrics, notes = end_to_end(passes, setups, rss)
        for name, (value, unit) in metrics.items():
            print(f"{name:12s} {value:12.6f} {unit:3s}  ({notes[name]})")
    print(f"{'fail_ratio':12s} {len(failures) / attempted:12.6f}      "
          f"({len(failures)} failed of {attempted} cells attempted)")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
