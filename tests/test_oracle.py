import numpy as np
import pytest

from mecfl import costs
from mecfl.errors import (
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

    def energy(x):
        state = replace(alloc, uplink_offload=[x])
        return costs.total_energy(Population.from_users([user]), state, model, cfg)[0]

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
