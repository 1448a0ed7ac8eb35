"""Smoke test of the benchmark harness at tiny scale.

Run from the root of a checkout: ``python3 -m pytest bench/test_smoke.py``.
"""

import dataclasses
import json
import math
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import env

env.use_checkout_source()

import harness  # noqa: E402
import tracer  # noqa: E402
from mecfl import orchestrator  # noqa: E402
from mecfl.types import AllocationState  # noqa: E402

TINY = {
    "mid": dataclasses.replace(harness.WORKLOADS["mid"], users=4, samples_per_user=30, rounds=3),
    "wide": dataclasses.replace(harness.WORKLOADS["wide"], users=6, samples_per_user=10, rounds=3),
    "sweep_offload": dataclasses.replace(harness.WORKLOADS["sweep_offload"], users=3,
                                         samples_per_user=20, rounds=2),
    "verify": dataclasses.replace(harness.WORKLOADS["verify"], users=3, samples_per_user=20,
                                  rounds=3),
}


def _measure(name, trace=False):
    return harness.measure(TINY[name], seed=3, seconds=0.01, trace=trace, setup_repeats=1)


def _declared_units(section):
    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    return {metric["name"]: metric["unit"] for metric in declared[section]}


def test_workloads_match_the_declared_ones():
    with open(os.path.join(env.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("trace", [False, True], ids=["end_to_end", "per_layer"])
@pytest.mark.parametrize("name", list(TINY))
def test_every_metric_is_emitted_with_its_unit(name, trace):
    result, detail = _measure(name, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    units = {metric: entry["unit"] for metric, entry in result["metrics"].items()}
    assert units == _declared_units("per_layer" if trace else "end_to_end")
    for metric, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), metric
        assert math.isfinite(entry["value"]), metric
    assert detail["absent_hooks"] == []
    json.dumps(result)


def test_local_and_edge_training_are_told_apart():
    # Offload grid 0.0..1.0 with 20 samples per user: every point but
    # delta=1.0 keeps data local, every point but delta=0.0 offloads some.
    result, _ = _measure("sweep_offload", trace=True)
    metrics = result["metrics"]
    wl = TINY["sweep_offload"]
    assert metrics["learning.train.local.calls"]["value"] == 10 * wl.users * wl.rounds
    assert metrics["learning.train.edge.calls"]["value"] == 10 * wl.rounds
    assert metrics["optimizer.solve_delta.calls"]["value"] == 0


def test_nan_loss_counts_as_a_failed_run(monkeypatch):
    monkeypatch.setattr(orchestrator, "evaluate_loss", lambda w, d: float("nan"))
    result, _ = _measure("mid")
    assert not result["correct"]
    assert result["attempted"] >= 1 and result["failed"] == result["attempted"]


def test_infeasible_allocation_counts_as_a_failed_run(monkeypatch):
    real_run = orchestrator.run_proposed

    def corrupted(*args, **kwargs):
        result = real_run(*args, **kwargs)
        good = result.alloc_trace[-1]
        bad = object.__new__(AllocationState)
        for name in AllocationState._FIELDS:
            object.__setattr__(bad, name, np.array(getattr(good, name)))
        bad.delta[0] = 1.5
        return dataclasses.replace(result, alloc_trace=result.alloc_trace[:-1] + (bad,))

    monkeypatch.setattr(orchestrator, "run_proposed", corrupted)
    result, _ = _measure("mid")
    assert not result["correct"] and result["failed"] == result["attempted"]


def test_missing_hook_is_reported_absent(monkeypatch):
    monkeypatch.setitem(tracer.SPAN_SITES, "optimizer.update_multipliers",
                        [("mecfl.orchestrator", "renamed_by_a_refactor")])
    result, detail = _measure("mid", trace=True)
    assert result["correct"]
    assert result["metrics"]["optimizer.update_multipliers.s"]["value"] is None
    assert detail["absent_hooks"] == ["mecfl.orchestrator.renamed_by_a_refactor"]


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(os.path.join(env.ROOT, "bench"), tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(env.ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert completed.returncode != 0
    assert completed.stdout == ""
