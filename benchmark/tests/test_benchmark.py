"""Checks of the benchmark itself: failures are counted, inputs are seeded,
the tracer sees every binding and puts the library back.

    PYTHONPATH=src python3 -m pytest benchmark/tests -q
"""

import copy
import json

import pytest

import dworklab.hasse_witt
import dworklab.laurent
from dworklab.arith import TPoly

import run
import workloads
from tracer import Tracer
from worker import GOLDEN, run_cell

ASD_CELL = "asd[-1, 0]/p=5"


def _cell(workload, name, seed=0):
    return next(c for c in workloads.build(workload, seed) if c.name == name)


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text())["integer-fibres"]


def test_unchanged_cell_matches_its_golden_digest(golden):
    status, latency, note = run_cell(_cell("integer-fibres", ASD_CELL), golden)
    assert (status, note) == ("ok", "")
    assert latency > 0


def test_perturbed_result_is_a_failure(golden):
    cell = _cell("integer-fibres", ASD_CELL)
    real = cell.run

    def perturbed():
        report = copy.deepcopy(real())
        report.cells[0]["lambda"] += 25  # same verdict, different output
        return report

    cell.run = perturbed
    assert cell.verdict(cell.run()) == "ok"
    status, _, note = run_cell(cell, golden)
    assert status == "fail" and "golden" in note


def test_false_verdict_and_raising_cell_are_failures():
    cell = _cell("integer-fibres", ASD_CELL)
    false_cell = workloads.Cell("false", cell.run, lambda out: "fail")
    assert run_cell(false_cell, None)[0] == "fail"

    def boom():
        raise ArithmeticError("injected")

    status, _, note = run_cell(workloads.Cell("raises", boom, workloads.ok_if), None)
    assert status == "fail" and "injected" in note


def test_supersingular_cell_is_skipped_not_failed(golden):
    # y^2 = x^3 - x is supersingular at p = 3
    status, _, _ = run_cell(_cell("integer-fibres", "asd[-1, 0]/p=3"), golden)
    assert status == "skip"


def test_seed_zero_is_the_acceptance_input_and_seeds_keep_supports():
    assert workloads.asd_curve((1, 1), 11, 0)[0] == (1, 1)
    for seed in (1, 2, 3):
        for shape in workloads.ASD_SHAPES:
            for p in workloads.ASD_PRIMES:
                (A, B), reduction = workloads.asd_curve(shape, p, seed)
                assert (A != 0, B != 0) == (shape[0] != 0, shape[1] != 0)
                assert reduction == workloads.elliptic_reduction(*shape, p)
                assert workloads.asd_curve(shape, p, seed) == ((A, B), reduction)
        f = workloads.crosscheck_poly((1, 1, 1, 2), 5, seed)
        assert f.support() == set(workloads.TRIANGLE)
        assert all(c % 5 for c in f.terms.values())


def test_tail_is_the_highest_percentile_with_ten_samples_above():
    assert run.tail(range(1, 41)) == (30, 75.0)
    assert run.tail([3, 1, 2]) == (3, 100.0)


def test_tracer_wraps_every_binding_and_restores_them():
    original = dworklab.laurent.coefficient_of_power
    add, radd = TPoly.__dict__["__add__"], TPoly.__dict__["__radd__"]
    assert add is radd
    tracer = Tracer()
    with tracer:
        assert dworklab.hasse_witt.coefficient_of_power is not original
        assert dworklab.laurent.coefficient_of_power is dworklab.hasse_witt.coefficient_of_power
        assert TPoly.__dict__["__radd__"] is TPoly.__dict__["__add__"] is not add
        status, _, _ = run_cell(_cell("integer-fibres", "asd[1, 1]/p=5"), None)
        _ = 1 + TPoly([1, 2])
    assert status == "ok"
    assert dworklab.laurent.coefficient_of_power is original
    assert dworklab.hasse_witt.coefficient_of_power is original
    assert TPoly.__dict__["__add__"] is add and TPoly.__dict__["__radd__"] is add

    layers = tracer.summary()
    cop = layers["laurent.coefficient_of_power"]
    assert cop["calls"] > 0 and cop["m_sum"] > 0 and cop["self_s"] > 0
    assert layers["arith.TPoly.add"]["calls"] >= 1
    assert layers["harness.suite"]["calls"] == 1
    # self times partition the root spans' time
    roots = sum(tracer.end[i] - tracer.start[i]
                for i in range(len(tracer.name)) if tracer.parent[i] < 0)
    total_self = sum(v["self_s"] for v in layers.values())
    assert total_self == pytest.approx(roots, rel=1e-9, abs=1e-9)


def _passes(ref, cells=(("a", (1.0, 3.0, 2.0)), ("b", (2.0, 2.0, 2.0)))):
    """Three untraced passes over cells a and b, a skipped and a failed cell,
    with the reference kernel taking `ref` seconds before and after each."""
    passes = []
    for i in range(3):
        results = {name: ["ok", times[i], ""] for name, times in cells}
        results["skipped"] = ["skip", 0.5, ""]
        results["broken"] = ["fail", 99.0, "x"]
        passes.append({"traced": False, "wall": 0.0, "cells": results,
                       "refs": [ref] * (len(results) + 1)})
    return passes


def test_skipped_and_failed_cells_are_not_latency_samples():
    ref = run.REFERENCE_S
    setups = [(0.3, ref), (0.1, ref), (0.2, ref)]
    metrics, notes = run.end_to_end(_passes(ref), setups, 2048)
    assert metrics["solve_s"] == (4.5, "s")  # medians 2.0 + 2.0 + skipped 0.5
    assert metrics["setup_s"] == (0.2, "s")
    assert metrics["cell_p50_s"] == (2.0, "s")  # per-cell medians 2.0 and 2.0
    assert metrics["cell_tail_s"] == (2.0, "s")
    assert metrics["peak_rss_mb"] == (2.0, "MB")
    assert notes["cell_p50_s"].startswith("2 cell samples")


def test_times_are_scaled_by_the_reference_kernel():
    # a host running Python at half speed takes twice as long for the kernel
    # and for every cell; the scaled times do not change
    ref = run.REFERENCE_S
    slow = [("a", (2.0, 6.0, 4.0)), ("b", (4.0, 4.0, 4.0))]
    fast_metrics, _ = run.end_to_end(_passes(ref), [(0.2, ref)], 2048)
    slow_metrics, notes = run.end_to_end(
        _passes(2 * ref, slow), [(0.4, 2 * ref)], 2048)
    for name in ("setup_s", "cell_p50_s", "cell_tail_s"):
        assert slow_metrics[name][0] == pytest.approx(fast_metrics[name][0])
    # the skipped cell's 0.5 s is halved too, as if the host had been slow
    assert slow_metrics["solve_s"][0] == pytest.approx(4.25)
    assert "unscaled 8.5000 s" in notes["solve_s"]
