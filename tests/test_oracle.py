import numpy as np
import pytest

from mecfl import costs, verify
from mecfl.errors import (
    DegenerateDivisor,
    InstanceTooLarge,
    NoFeasiblePoint,
    NoSignChange,
    ValidationError,
)
from mecfl.costs import base_rate
from mecfl.oracle import bisect_root, finite_diff, grid_minimize, simplex_minimize_maxtime
from mecfl.types import Population, SystemConfig
from dataclasses import replace

from helpers import make_alloc, make_model, make_user


def pop_of(users):
    return Population.from_users(users)


def test_grid_finds_quadratic_vertex():
    x, fx = grid_minimize(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 101)
    assert x == pytest.approx(0.30, abs=1e-12)
    assert fx == pytest.approx(0.0, abs=1e-12)


def test_grid_respects_constraint_boundary():
    x, _ = grid_minimize(lambda x: x, 0.0, 1.0, 101, constraint=lambda x: x >= 0.5)
    assert x == pytest.approx(0.5, abs=1e-12)


def test_grid_no_feasible_point():
    with pytest.raises(NoFeasiblePoint):
        grid_minimize(lambda x: x, 0.0, 1.0, 11, constraint=lambda x: x > 2.0)


def test_grid_scalar_fallback():
    # non-broadcasting callable still works
    x, _ = grid_minimize(lambda x: float(abs(x - 0.25)), 0.0, 1.0, 5)
    assert x == pytest.approx(0.25)


def test_grid_argument_validation():
    with pytest.raises(ValidationError):
        grid_minimize(lambda x: x, 0.0, 1.0, 1)
    with pytest.raises(ValidationError):
        grid_minimize(lambda x: x, 1.0, 0.0, 10)


def test_bisect_linear_root():
    assert bisect_root(lambda x: x - 0.5, 0.0, 1.0, 1e-8) == pytest.approx(0.5, abs=1e-8)


def test_bisect_sqrt_two():
    root = bisect_root(lambda x: x * x - 2.0, 1.0, 2.0, 1e-8)
    assert root == pytest.approx(1.41421356, abs=1e-8)


def test_bisect_requires_sign_change():
    with pytest.raises(NoSignChange):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-8)


def test_bisect_exact_endpoint_root():
    assert bisect_root(lambda x: x, 0.0, 1.0, 1e-8) == 0.0


def test_finite_diff_first_order():
    assert finite_diff(lambda x: x * x, 3.0, 1, 1e-6) == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_second_order():
    assert finite_diff(lambda x: x * x, 3.0, 2, 1e-4) == pytest.approx(2.0, abs=1e-4)


def test_finite_diff_rejects_other_orders():
    with pytest.raises(ValidationError):
        finite_diff(lambda x: x, 0.0, 3, 1e-6)


def test_energy_curvature_in_offload_share_matches_analytic_expression():
    # d2 e / d share2 = 2 * p * 8 * delta * data_bytes / (share^3 * R)
    cfg = SystemConfig()
    user = make_user(samples=700)
    model = make_model([user], dim=300)
    share = 0.37
    alloc = make_alloc(1, delta=0.6, gamma=0.5, offload=[share], upload=[0.4])

    def energy(xs):
        stack = replace(alloc, uplink_offload=xs[:, None])
        return costs.total_energy(Population.from_users([user]), stack, model, cfg)[:, 0]

    fd2 = finite_diff(energy, share, 2, 1e-4)
    analytic = (2.0 * user.transmit_power * 8.0 * 0.6 * costs.dataset_bytes(user, cfg)
                / (share ** 3 * base_rate(user, cfg)))
    assert fd2 == pytest.approx(analytic, rel=1e-3)
    assert fd2 >= 0.0


def test_simplex_symmetric_two_users_split_evenly():
    cfg = SystemConfig()
    users = [make_user(uid=0), make_user(uid=1)]
    alloc = make_alloc(2, delta=0.5, gamma=0.5)
    model = make_model(users, dim=100)
    offload, upload = simplex_minimize_maxtime(pop_of(users), alloc, model, cfg, 1e-2)
    assert np.allclose(offload, [0.5, 0.5])
    assert np.allclose(upload, [0.5, 0.5])


def test_simplex_asymmetric_load_gets_proportional_share():
    # offload loads in ratio 2:1 (multiplier-weighted terms 4:1) -> shares (2/3, 1/3)
    cfg = SystemConfig()
    users = [make_user(uid=0, samples=2000), make_user(uid=1, samples=1000)]
    alloc = make_alloc(2, delta=0.5, gamma=0.5)
    model = make_model(users, dim=100)
    offload, _ = simplex_minimize_maxtime(pop_of(users), alloc, model, cfg, 1e-3)
    assert offload[0] == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert offload[1] == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_simplex_three_users_supported():
    cfg = SystemConfig()
    users = [make_user(uid=i) for i in range(3)]
    alloc = make_alloc(3, delta=0.5, gamma=0.5)
    model = make_model(users, dim=100)
    offload, upload = simplex_minimize_maxtime(pop_of(users), alloc, model, cfg, 5e-2)
    assert offload.sum() == pytest.approx(1.0)
    assert upload.sum() == pytest.approx(1.0)


def test_simplex_guards_against_large_instances():
    cfg = SystemConfig()
    users = [make_user(uid=i) for i in range(4)]
    alloc = make_alloc(4, delta=0.5, gamma=0.5)
    model = make_model(users, dim=100)
    with pytest.raises(InstanceTooLarge):
        simplex_minimize_maxtime(pop_of(users), alloc, model, cfg, 1e-2)


@pytest.mark.parametrize("resolution", [0.0, float("nan"), -0.1, float("inf"), 1.5])
def test_simplex_rejects_resolution_outside_unit_interval(resolution):
    users = [make_user(uid=0), make_user(uid=1)]
    with pytest.raises(ValidationError, match="resolution must be finite, > 0 and <= 1"):
        simplex_minimize_maxtime(pop_of(users), make_alloc(2), make_model(users), SystemConfig(),
                                 resolution)


@pytest.mark.parametrize("h", [0.0, -1e-6, float("nan"), float("inf")])
@pytest.mark.parametrize("order", [1, 2])
def test_finite_diff_rejects_step_that_is_not_positive_and_finite(order, h):
    with pytest.raises(ValidationError, match="h must be finite and > 0"):
        finite_diff(lambda x: x * x, 3.0, order, h)


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
def test_bisect_rejects_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValidationError, match="tol must be finite and > 0"):
        bisect_root(lambda x: x - 0.3, 0.0, 1.0, tol)


def test_finite_diff_calls_f_once_on_the_stencil():
    seen = []

    def f(xs):
        seen.append(xs.copy())
        return xs ** 3

    assert finite_diff(f, 2.0, 1, 0.5) == (2.5 ** 3 - 1.5 ** 3) / 1.0
    assert finite_diff(f, 2.0, 2, 0.5) == (2.5 ** 3 - 2.0 * 8.0 + 1.5 ** 3) / 0.25
    assert [list(xs) for xs in seen] == [[2.5, 1.5], [2.5, 2.0, 1.5]]


# --------------------------------------------------------------------------
# the batched simplex search against the per-candidate search it replaced
# --------------------------------------------------------------------------

def _reference_compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(head,) + rest for head in range(total + 1)
            for rest in _reference_compositions(total - head, parts - 1)]


def _reference_simplex(pop, alloc, model, cfg, resolution):
    """One AllocationState and one cost call per composition and simplex."""
    def worst(per_user_time, *args):
        try:
            return float(per_user_time(*args).max())
        except DegenerateDivisor:
            return np.inf

    steps = int(round(1.0 / resolution))
    best_offload, best_offload_time = None, np.inf
    best_upload, best_upload_time = None, np.inf
    for combo in _reference_compositions(steps, pop.n_users):
        shares = np.array(combo, dtype=float) / steps
        t = worst(costs.edge_time_user, pop, replace(alloc, uplink_offload=shares), cfg)
        if t < best_offload_time:
            best_offload, best_offload_time = shares, t
        t = worst(costs.local_time, pop, replace(alloc, uplink_weight=shares), model, cfg)
        if t < best_upload_time:
            best_upload, best_upload_time = shares, t
    if best_offload is None or not np.isfinite(best_upload_time):
        raise NoFeasiblePoint("reference: every grid point was degenerate")
    return best_offload, best_upload


def _assert_batched_equals_reference(pop, alloc, model, cfg, resolution):
    batched = simplex_minimize_maxtime(pop, alloc, model, cfg, resolution)
    reference = _reference_simplex(pop, alloc, model, cfg, resolution)
    for got, want in zip(batched, reference):
        assert np.array_equal(got, want), (got, want)
    return batched


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_simplex_equals_reference_on_random_two_user_instances(seed):
    users, alloc, model, cfg = verify.random_uplink_instance(np.random.default_rng(seed))
    _assert_batched_equals_reference(pop_of(users), alloc, model, cfg, 1e-3)


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_simplex_equals_reference_on_random_three_user_instances(seed):
    users, alloc, model, cfg = verify.random_delta_instance(np.random.default_rng(seed))
    _assert_batched_equals_reference(pop_of(users), alloc, model, cfg, 2e-2)


def test_batched_simplex_gives_a_user_at_zero_delta_a_zero_offload_share():
    # user 0 offloads nothing, so a zero offload share is feasible for it and optimal
    users = [make_user(uid=i, samples=600 + 300 * i) for i in range(3)]
    alloc = make_alloc(3, delta=[0.0, 0.4, 0.7], gamma=[0.9, 0.6, 0.3])
    offload, _ = _assert_batched_equals_reference(pop_of(users), alloc, make_model(users),
                                                  SystemConfig(), 2e-2)
    assert offload[0] == 0.0


def test_batched_simplex_ties_take_the_first_composition():
    # nobody offloads: every offload composition scores the same
    users = [make_user(uid=i) for i in range(3)]
    alloc = make_alloc(3, delta=0.0, gamma=0.5)
    offload, _ = _assert_batched_equals_reference(pop_of(users), alloc, make_model(users),
                                                  SystemConfig(), 0.1)
    assert list(offload) == [0.0, 0.0, 1.0]


def test_batched_simplex_rejects_a_gamma_degenerate_instance():
    # user 1 has local data but no CPU: every upload candidate is degenerate
    cfg = SystemConfig()
    users = [make_user(uid=0), make_user(uid=1)]
    alloc = make_alloc(2, delta=0.5, gamma=[0.5, 0.0])
    model = make_model(users)
    with pytest.raises(NoFeasiblePoint):
        _reference_simplex(pop_of(users), alloc, model, cfg, 1e-2)
    with pytest.raises(NoFeasiblePoint):
        simplex_minimize_maxtime(pop_of(users), alloc, model, cfg, 1e-2)


def test_batched_simplex_scores_nan_as_infinite(monkeypatch):
    # NaN wherever user 0 gets at least 0.3 of the offload band, which hides
    # the symmetric optimum (0.5, 0.5): the best scored point is (0.29, 0.71)
    original = costs.edge_time_user

    def nan_above_share(pop, alloc, cfg):
        times = original(pop, alloc, cfg)
        return np.where(alloc.uplink_offload[..., :1] >= 0.3, np.nan, times)

    monkeypatch.setattr(costs, "edge_time_user", nan_above_share)
    users = [make_user(uid=0), make_user(uid=1)]
    offload, _ = _assert_batched_equals_reference(pop_of(users), make_alloc(2), make_model(users),
                                                  SystemConfig(), 1e-2)
    assert list(offload) == [0.29, 0.71]
