"""Golden certificates: ``verify.run_all`` against stored recordings.

Each recording holds the name, verdict and detail line of every check, so a
change to an oracle, a closed form or an instance generator that moves any
printed figure shows up here. ``golden_verify_fast.json`` is checked below
against ``run_all(fast=True)``; ``golden_verify_full.json`` holds the full
counts, which the acceptance criteria 1-4 run and check against it.
Regenerate both (only for an intended change of the certificates) with

    PYTHONPATH=src python tests/test_golden_verify.py
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mecfl import verify
from mecfl.types import AllocationState, Population

from helpers import GOLDEN_VERIFY_FULL, record_certificates

GOLDEN_PATH = Path(__file__).parent / "data" / "golden_verify_fast.json"


def _counting_constructions(run):
    """``run()`` and the number of AllocationState and Population objects it built."""
    built = {AllocationState: 0, Population: 0}
    with pytest.MonkeyPatch.context() as patch:
        for cls in built:
            def counted(self, build=cls.__post_init__, cls=cls):
                built[cls] += 1
                build(self)
            patch.setattr(cls, "__post_init__", counted)
        result = run()
    return result, built


@pytest.fixture(scope="module")
def fast_run():
    return _counting_constructions(lambda: verify.run_all(fast=True))


@pytest.fixture(scope="module")
def certificates(fast_run):
    return fast_run[0]


def test_verify_fast_matches_golden_certificates(certificates):
    golden = json.loads(GOLDEN_PATH.read_text())
    assert record_certificates(certificates) == golden


def test_verify_builds_one_stack_per_check_not_one_object_per_instance(fast_run):
    # the checks certify each instance set as one stack (81 allocations and 17
    # populations); only the simplex oracle takes its 5 instances one by one.
    # The offload sweep run per instance again would add 20 of each.
    _, built = fast_run
    assert built[AllocationState] <= 90 and built[Population] <= 20, built


def test_verify_calls_each_closed_form_once_per_check(monkeypatch):
    calls = dict.fromkeys(["solve_gamma", "solve_delta", "solve_uplink"], 0)
    for name in calls:
        def counted(*args, solve=getattr(verify, name), name=name):
            calls[name] += 1
            return solve(*args)
        monkeypatch.setattr(verify, name, counted)
    verify.run_all(fast=True)
    assert calls == {"solve_gamma": 1, "solve_delta": 1, "solve_uplink": 1}


def test_gamma_check_searches_every_instance_in_one_grid_call(monkeypatch):
    # one bisection over every budget-bound lane, one stacked grid over every instance
    calls = dict.fromkeys(["grid_minimize", "bisect_root"], 0)
    for name in calls:
        def counted(*args, search=getattr(verify, name), name=name):
            calls[name] += 1
            return search(*args)
        monkeypatch.setattr(verify, name, counted)
    assert verify.check_gamma_closed_form(n_instances=20).passed
    assert calls == {"grid_minimize": 1, "bisect_root": 1}


def _gamma_mutant(monkeypatch, mutate):
    """``check_gamma_closed_form(20)`` with ``mutate`` applied to what ``solve_gamma`` answers."""
    def mutant(*args, solve=verify.solve_gamma):
        gamma, exhausted = solve(*args)
        return mutate(gamma.copy()), exhausted
    monkeypatch.setattr(verify, "solve_gamma", mutant)
    return verify.check_gamma_closed_form(n_instances=20)


def test_gamma_check_fails_interior_fractions_off_by_one_part_in_a_billion(monkeypatch):
    # a grid certificate with a 1e-6 step passes this mutant
    result = _gamma_mutant(monkeypatch,
                           lambda gamma: np.where(gamma < 1.0, gamma * (1.0 - 1e-9), gamma))
    assert not result.passed, result.detail


def test_gamma_check_fails_a_budget_bound_instance_forced_to_one(monkeypatch):
    def force_first_interior(gamma):
        gamma.flat[np.argmax(gamma < 1.0)] = 1.0
        return gamma

    result = _gamma_mutant(monkeypatch, force_first_interior)
    assert not result.passed, result.detail


def _delta_mutant(monkeypatch, mutate):
    """``check_delta_closed_form(20)`` with ``mutate`` applied to what ``solve_delta`` answers."""
    monkeypatch.setattr(verify, "solve_delta",
                        lambda *args, solve=verify.solve_delta: mutate(solve(*args).copy()))
    return verify.check_delta_closed_form(n_instances=20)


@pytest.mark.parametrize("where", ["interior", "clamped"])
def test_delta_check_fails_one_user_off_its_best_response_by_1e_7(monkeypatch, where):
    # ten times the check's tolerance; a user at a bound moves into [0, 1]
    def move_one(delta):
        interior = (delta > 0.0) & (delta < 1.0)
        k = int(np.argmax(interior if where == "interior" else ~interior))
        delta.flat[k] += 1e-7 if delta.flat[k] < 1.0 else -1e-7
        return delta

    result = _delta_mutant(monkeypatch, move_one)
    assert not result.passed, result.detail


def test_curvature_check_builds_as_many_objects_at_any_point_count():
    _, few = _counting_constructions(
        lambda: verify.check_curvature_and_monotonicity(points_per_pair=10))
    _, many = _counting_constructions(
        lambda: verify.check_curvature_and_monotonicity(points_per_pair=300))
    assert few == many


def test_every_check_reports_a_plain_bool_and_serializes(certificates):
    assert len(certificates) == 4
    for check in certificates:
        assert type(check.passed) is bool, check.name
        assert json.loads(json.dumps(dataclasses.asdict(check)))["passed"] is True


if __name__ == "__main__":
    GOLDEN_PATH.parent.mkdir(exist_ok=True)
    for path, fast in ((GOLDEN_PATH, True), (GOLDEN_VERIFY_FULL, False)):
        path.write_text(json.dumps(record_certificates(verify.run_all(fast=fast)), indent=1)
                        + "\n")
