"""Golden certificates: ``verify.run_all`` against stored recordings.

Each recording holds the name, verdict and detail line of every check, so a
change to an oracle, a closed form or an instance generator that moves any
printed figure shows up here. ``golden_verify_fast.json`` is checked below
against ``run_all(fast=True)``; ``golden_verify_full.json`` holds the full
counts, which the acceptance criteria 1-4 run and check against it.
Regenerate both (only for an intended change of the certificates) with

    PYTHONPATH=src python tests/test_golden_verify.py
"""

import collections
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

from mecfl import verify
from mecfl.types import AllocationState, Population

from helpers import GOLDEN_VERIFY_FULL, CountingGenerator, record_certificates

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
    # every check certifies its instance set as one stack: 64 allocations (42
    # of them the delta check's bisection, one per evaluation) and 7 populations.
    # The simplex oracle run per instance again would add 13 and 5 of them.
    _, built = fast_run
    assert built == {AllocationState: 64, Population: 7}, built


@pytest.mark.parametrize("check, fast, full", [
    ("check_gamma_closed_form", 20, 200),
    ("check_delta_closed_form", 20, 200),
    ("check_uplink_closed_form", 5, 50),
    ("check_curvature_and_monotonicity", 100, 1000),
])
def test_every_check_makes_as_many_generator_calls_at_any_count(monkeypatch, check, fast, full):
    # each field of all instances is one draw; a loop over instances draws per instance
    default_rng = verify.np.random.default_rng
    counts = []
    for count in (fast, full):
        calls = collections.Counter()
        monkeypatch.setattr(verify.np.random, "default_rng",
                            lambda seed: CountingGenerator(default_rng(seed), calls))
        assert getattr(verify, check)(count).passed
        counts.append(calls)
    assert counts[0] == counts[1] and sum(counts[0].values()) <= 12, counts


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


def test_uplink_check_makes_one_oracle_call_on_the_stack(monkeypatch):
    calls = []

    def counted(pop, *args, search=verify.simplex_minimize_maxtime):
        calls.append(pop.transmit_power.shape)
        return search(pop, *args)

    monkeypatch.setattr(verify, "simplex_minimize_maxtime", counted)
    assert verify.check_uplink_closed_form(n_instances=5).passed
    assert calls == [(5, 2)]


def test_uplink_check_builds_as_many_objects_at_any_instance_count():
    _, one = _counting_constructions(lambda: verify.check_uplink_closed_form(n_instances=1))
    _, many = _counting_constructions(lambda: verify.check_uplink_closed_form(n_instances=50))
    assert one == many


def test_uplink_check_fails_two_upload_shares_swapped_in_one_instance(monkeypatch):
    # the most unequal instance, so the swap moves its shares by more than the resolution
    def mutant(*args, solve=verify.solve_uplink):
        offload, upload = solve(*args)
        upload = upload.copy()
        k = int(np.argmax(np.abs(upload[:, 0] - upload[:, 1])))
        upload[k] = upload[k, ::-1]
        return offload, upload

    monkeypatch.setattr(verify, "solve_uplink", mutant)
    result = verify.check_uplink_closed_form(n_instances=5)
    assert not result.passed, result.detail


def test_curvature_check_fails_one_analytic_derivative_of_the_wrong_sign(monkeypatch):
    def mutant(*args, derive=verify._analytic_first_derivatives):
        analytic = derive(*args)
        flipped = analytic[("local_time", "gamma")].copy()
        flipped[7] = -flipped[7]
        return {**analytic, ("local_time", "gamma"): flipped}

    monkeypatch.setattr(verify, "_analytic_first_derivatives", mutant)
    result = verify.check_curvature_and_monotonicity(points_per_pair=100)
    assert not result.passed
    assert result.detail.startswith("sign mismatch for d(local_time)/d(gamma)"), result.detail


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
