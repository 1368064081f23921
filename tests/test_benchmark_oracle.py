"""The benchmark's own oracle, run in tier-1: every seed-0 cell of every
workload gives an exact verdict of ok (or skip) and the output digest recorded
in benchmark/golden.json."""

import json
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "benchmark"
if str(BENCH) not in sys.path:
    sys.path.insert(0, str(BENCH))

import workloads  # noqa: E402
from worker import GOLDEN, run_cell  # noqa: E402


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_zero_cells_match_golden(workload):
    golden = json.loads(GOLDEN.read_text())[workload]
    cells = workloads.build(workload, 0)
    assert {c.name for c in cells} == set(golden)
    for cell in cells:  # in order: a cy-pipeline cell reads its predecessors' output
        status, _, note = run_cell(cell, golden)
        assert status in ("ok", "skip"), f"{cell.name}: {note}"
