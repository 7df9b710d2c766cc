"""Smoke test of the benchmark itself: python3 -m pytest -q bench/smoke.py

Runs a few ops of every workload through bench/run.py, checks that every
metric BENCHMARK.json names is printed with its unit, that a corrupted
output counts as failed, and that the tracing wrappers leave results
unchanged.  Takes about a minute on two cores.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math

import numpy as np
import pytest

import checks
import run
import tracing
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_bench(monkeypatch, workload: str, trace: int) -> dict:
    monkeypatch.setattr(run, "SETUP_REPEATS", 2)
    monkeypatch.setattr(run, "MIN_OPS", 6)
    monkeypatch.setattr(run, "IMPORT_PROBES", 1)
    monkeypatch.setattr(run, "INTERPRETER_PROBES", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", workload, "--seed", "7", "--seconds", "0.2",
                         "--trace", str(trace)])
    assert code == 0
    return json.loads(out.getvalue().strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_reported_with_its_unit(monkeypatch, workload, trace):
    result = _run_bench(monkeypatch, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 6
    wanted = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for m in result["metrics"].values():
        assert math.isfinite(m["value"])


def test_benchmark_json_matches_the_code():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(tracing.PER_LAYER)
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.fixture(scope="module")
def grid(tmp_path_factory):
    wl = workloads.GridSolvers(7, tmp_path_factory.mktemp("grid"))
    wl.setup()
    return wl


def test_corrupted_output_counts_as_failed(grid, monkeypatch):
    original = grid.pricing.pde_price
    calls = []

    def corrupted(*args, **kwargs):
        result = original(*args, **kwargs)
        calls.append(result)
        if len(calls) == 2:
            # Off by 1% of spot: far outside the PDE's 1e-3 relative check.
            result = dataclasses.replace(result, premium=result.premium + 0.01 * args[0].u0)
        return result

    monkeypatch.setattr(grid.pricing, "pde_price", corrupted)
    result = workloads.run_ops(grid, 0.0, 4)
    assert result["attempted"] == 4
    assert result["failed"] == 1
    assert result["failures"][0].startswith("op 1 ")


def test_checks_reject_wrong_answers():
    m = {"kind": "put", "u0": 1.2, "strike": 1.1, "sigma": 0.3, "expiry": 2.0,
         "rd": 0.03, "rf": 0.01}
    ref = checks.gk_reference(m)
    assert checks.check_closed_form(ref, m, ref) == []
    assert checks.check_closed_form(ref * (1 + 1e-9), m, ref)
    assert checks.check_mc(ref + 6e-4, 1e-4, m, ref)
    assert checks.check_mc(0.0, 0.0, m, ref)

    t = m["expiry"]
    points = np.linspace(-3.0, 3.0, 2001)
    h = points[1] - points[0]
    mean = math.log(m["u0"]) + checks.log_drift(m) * t
    exact = checks.gaussian_pdf(points, mean, m["sigma"] ** 2 * t + (3 * h) ** 2)
    assert checks.check_evolved_density(points, exact, math.log(m["u0"]), m, t) == []
    shifted = checks.gaussian_pdf(points, mean + 0.01, m["sigma"] ** 2 * t + (3 * h) ** 2)
    assert checks.check_evolved_density(points, shifted, math.log(m["u0"]), m, t)

    rng = np.random.default_rng(0)
    n_paths, n_steps = 10_000, 4
    steps = checks.log_drift(m) * t / n_steps + m["sigma"] * math.sqrt(t / n_steps) * (
        rng.standard_normal((n_paths, n_steps))
    )
    log_paths = np.hstack([np.zeros((n_paths, 1)), np.cumsum(steps, axis=1)]) + math.log(m["u0"])
    times = np.linspace(0.0, t, n_steps + 1)
    assert checks.check_paths(times, log_paths, m, t, n_paths, n_steps) == []
    assert checks.check_paths(times, log_paths * 1.01, m, t, n_paths, n_steps)


def test_wrappers_do_not_change_results(grid):
    spec = grid.spec(0)
    plain = grid.run(spec)
    original = grid.pricing.pde_price
    tracer = tracing.Tracer()
    tracer.install()
    try:
        traced = grid.run(spec)
    finally:
        tracer.uninstall()
    assert grid.pricing.pde_price is original
    assert {s[2] for s in tracer.spans} == {
        "pricing.pde_price", "fokker_planck.evolve_density", "maxent.solve_maxent"
    }
    assert traced[0] == plain[0]
    assert np.array_equal(traced[1].weights, plain[1].weights)
    assert np.array_equal(traced[2].multipliers, plain[2].multipliers)
    assert np.array_equal(traced[2].density.weights, plain[2].density.weights)


def test_self_time_subtracts_children():
    spans = [
        [1, None, "parent", 0, 100, 0, {}],
        [2, 1, "child", 10, 30, 0, {}],
        [3, 1, "child", 20, 50, 0, {}],
        [4, 1, "child", 70, 80, 0, {}],
    ]
    assert tracing.self_times_ns(spans)[1] == 100 - 40 - 10
