import numpy as np
import pytest
from dataclasses import fields, replace

from mecfl import costs
from mecfl.costs import base_rate
from mecfl.errors import AllZeroWeights, DegenerateDivisor, ValidationError
from mecfl.optimizer import (
    LAMBDA_MIN,
    simplex_shares,
    solve_delta,
    solve_gamma,
    solve_uplink,
    update_multipliers,
)
from mecfl.types import SystemConfig

from helpers import join, make_alloc, make_pop


def gamma_instance(target, delta=0.4, share=0.4):
    """One user, its budget placed so the unclamped CPU fraction equals ``target``."""
    cfg = SystemConfig()
    pop = make_pop(samples=500)
    alloc = make_alloc(1, delta=delta, gamma=0.3, offload=[share], upload=[share])
    dim = 200
    (rate,), (data,) = base_rate(pop, cfg), costs.dataset_bytes(pop, cfg)
    (power,), (cpu,) = pop.transmit_power, pop.cpu_hz
    transmission = (
        costs.transmit_energy(power, delta * data, share, rate)
        + costs.transmit_energy(power, costs.weights_bytes(dim, cfg), share, rate)
    )
    compute = costs.training_energy(cfg.chip_capacitance, (1 - delta) * data,
                                    cfg.cycles_per_byte, target, cpu)
    pop = replace(pop, energy_budget=[transmission + compute])
    return pop, alloc, dim, cfg


def gamma_of(pop, alloc, dim, cfg):
    """solve_gamma on a one-user population, as plain (gamma, exhausted)."""
    (gamma,), (exhausted,) = solve_gamma(pop, alloc, dim, cfg)
    return gamma, exhausted


def reordered(obj, order):
    return replace(obj, **{f.name: getattr(obj, f.name)[order] for f in fields(obj)})


def delta_of(index, pop, alloc, dim, cfg):
    """User ``index``'s answer to everyone else's previous offload fractions.

    That is entry 0 of a sweep that visits the user first.
    """
    order = [index] + [j for j in range(pop.n_users) if j != index]
    return solve_delta(reordered(pop, order), reordered(alloc, order), dim, cfg)[0]


def test_gamma_zero_remaining_budget():
    pop, alloc, dim, cfg = gamma_instance(target=0.0)
    assert gamma_of(pop, alloc, dim, cfg) == (0.0, False)


def test_gamma_clamps_at_one():
    pop, alloc, dim, cfg = gamma_instance(target=2.0)
    assert gamma_of(pop, alloc, dim, cfg) == (1.0, False)


def test_gamma_budget_exhausted_flag():
    pop, alloc, dim, cfg = gamma_instance(target=0.5)
    pop = replace(pop, energy_budget=pop.energy_budget * 0.1)
    gamma, exhausted = gamma_of(pop, alloc, dim, cfg)
    assert gamma == 0.0 and exhausted


def test_gamma_interior_recovers_target_and_saturates_budget():
    pop, alloc, dim, cfg = gamma_instance(target=0.7)
    gamma, exhausted = gamma_of(pop, alloc, dim, cfg)
    assert not exhausted
    assert gamma == pytest.approx(0.7, rel=1e-12)
    (spent,) = costs.total_energy(pop, replace(alloc, gamma=np.array([gamma])), dim, cfg)
    assert spent == pytest.approx(pop.energy_budget[0], rel=1e-12)


def test_gamma_full_offload_is_zero():
    pop, alloc, dim, cfg = gamma_instance(target=0.7, delta=0.4)
    assert gamma_of(pop, replace(alloc, delta=np.array([1.0])), dim, cfg) == (0.0, False)


def test_gamma_requires_positive_shares():
    pop, alloc, dim, cfg = gamma_instance(target=0.5)
    with pytest.raises(DegenerateDivisor):
        gamma_of(pop, replace(alloc, uplink_offload=np.array([0.0])), dim, cfg)


def test_delta_limit_all_remote_costs_vanish():
    # Enormous edge CPU and uplink: only the local training term survives,
    # so offloading everything balances the times.
    cfg = SystemConfig(edge_cpu_hz=1e30)
    pop = make_pop(gain=1e-2, samples=1, cpu=1e8)
    alloc = make_alloc(1, delta=0.3, gamma=1.0, offload=[0.5], upload=[0.5])
    dim = 10000
    assert delta_of(0, pop, alloc, dim, cfg) == 1.0


def test_delta_clamps_at_zero_when_edge_is_overloaded():
    cfg = SystemConfig(edge_cpu_hz=1e6)
    pop = make_pop(samples=[100, 100000])
    alloc = make_alloc(2, delta=[0.5, 1.0], gamma=1.0, offload=[0.4, 0.4], upload=[0.4, 0.4])
    dim = 100
    assert delta_of(0, pop, alloc, dim, cfg) == 0.0


def test_delta_interior_balances_times():
    rng = np.random.default_rng(21)
    cfg = SystemConfig()
    for _ in range(20):
        pop = join(make_pop(gain=rng.uniform(1e-8, 1e-6), samples=int(rng.integers(100, 2000)))
                   for _ in range(2))
        alloc = make_alloc(2, delta=rng.uniform(0.1, 0.9, 2), gamma=rng.uniform(0.2, 1.0, 2),
                           offload=rng.dirichlet(np.ones(2)) * 0.9,
                           upload=rng.dirichlet(np.ones(2)) * 0.9)
        dim = int(rng.integers(100, 2000))
        star = delta_of(0, pop, alloc, dim, cfg)
        if not 0.0 < star < 1.0:
            continue
        state = replace(alloc, delta=np.array([star, alloc.delta[1]]))
        t_local = costs.local_time(pop, state, dim, cfg)[0]
        t_edge = costs.edge_time_user(pop, state, cfg)[0]
        assert abs(t_local - t_edge) <= 1e-6 * max(t_local, t_edge)


def test_delta_requires_positive_allocations():
    # A user without offload share is forced to 0, one without CPU budget
    # to 1; any other user needs an upload share, and the lowest without
    # one is named.
    cfg = SystemConfig()
    pop = make_pop(3)
    dim = 10
    with pytest.raises(DegenerateDivisor,
                       match="user 1: solve_delta needs positive gamma and both uplink shares"):
        solve_delta(pop, make_alloc(3, upload=[0.5, 0.0, 0.0]), dim, cfg)
    forced = make_alloc(3, gamma=[0.0, 0.5, 0.5], offload=[0.5, 0.0, 0.5],
                        upload=[0.0, 0.0, 0.5])
    assert solve_delta(pop, forced, dim, cfg)[:2].tolist() == [1.0, 0.0]


def test_uplink_symmetric_users_split_evenly():
    cfg = SystemConfig()
    pop = make_pop(4)
    alloc = make_alloc(4, delta=0.5, gamma=0.5)
    dim = 100
    offload, upload = solve_uplink(pop, alloc, dim, cfg)
    assert np.allclose(offload, 0.25, rtol=0, atol=1e-15)
    assert np.allclose(upload, 0.25, rtol=0, atol=1e-15)


def test_uplink_square_root_proportionality():
    # weight terms in ratio 4:1 -> shares 2/3 and 1/3
    cfg = SystemConfig()
    pop = make_pop(2)
    alloc = make_alloc(2, delta=0.5, gamma=0.5, lam_offload=[0.8, 0.2])
    dim = 100
    offload, _ = solve_uplink(pop, alloc, dim, cfg)
    assert offload[0] == pytest.approx(2.0 / 3.0, rel=1e-12)
    assert offload[1] == pytest.approx(1.0 / 3.0, rel=1e-12)


def test_uplink_zero_delta_user_is_excluded():
    cfg = SystemConfig()
    pop = make_pop(3)
    alloc = make_alloc(3, delta=[0.0, 0.5, 0.5], gamma=0.5)
    dim = 100
    offload, upload = solve_uplink(pop, alloc, dim, cfg)
    assert offload[0] == 0.0
    assert offload[1] == pytest.approx(0.5) and offload[2] == pytest.approx(0.5)
    assert upload.sum() == pytest.approx(1.0, abs=1e-12)


def test_uplink_simplex_sums_are_exact():
    rng = np.random.default_rng(22)
    cfg = SystemConfig()
    for _ in range(30):
        n = int(rng.integers(2, 8))
        pop = join(make_pop(gain=rng.uniform(1e-8, 1e-6), samples=int(rng.integers(50, 500)))
                   for _ in range(n))
        alloc = make_alloc(n, delta=rng.uniform(0.01, 1.0, n), gamma=0.5,
                           lam_offload=rng.uniform(0.05, 0.95, n),
                           lam_local=rng.uniform(0.05, 0.95, n))
        dim = 100
        offload, upload = solve_uplink(pop, alloc, dim, cfg)
        assert abs(offload.sum() - 1.0) <= 1e-12
        assert abs(upload.sum() - 1.0) <= 1e-12


def test_uplink_scale_invariance():
    cfg = SystemConfig()
    pop = make_pop(gain=[10.0 ** (-6 - i) for i in range(3)])
    dim = 100
    base = make_alloc(3, delta=[0.2, 0.5, 0.9], gamma=0.5,
                      lam_offload=[0.1, 0.3, 0.6], lam_local=[0.2, 0.2, 0.6])
    scaled = replace(base, lambda_offload=base.lambda_offload * 37.0,
                     lambda_local=base.lambda_local * 37.0)
    off_a, up_a = solve_uplink(pop, base, dim, cfg)
    off_b, up_b = solve_uplink(pop, scaled, dim, cfg)
    assert np.allclose(off_a, off_b, rtol=1e-14)
    assert np.allclose(up_a, up_b, rtol=1e-14)


def test_uplink_all_zero_offload_weights():
    # Nobody offloads: the offload shares are moot and kept as they are.
    cfg = SystemConfig()
    pop = make_pop(2, gain=[1e-6, 3e-7])
    alloc = make_alloc(2, delta=0.0, gamma=0.5, offload=[0.7, 0.2], upload=[0.5, 0.5])
    offload, upload = solve_uplink(pop, alloc, 100, cfg)
    assert np.array_equal(offload, alloc.uplink_offload)
    assert upload.sum() == pytest.approx(1.0, abs=1e-12)
    assert upload[0] < upload[1]      # the weaker channel needs the larger share


def test_simplex_shares_reject_all_zero_weights():
    with pytest.raises(AllZeroWeights):
        simplex_shares(np.zeros(3))


@pytest.mark.parametrize("bad", [-1e-12, np.nan], ids=["negative", "nan"])
def test_simplex_shares_reject_a_negative_or_nan_weight(bad):
    with pytest.raises(ValidationError, match="finite and >= 0"):
        simplex_shares(np.array([1.0, bad, 2.0]))


def test_simplex_shares_of_positive_weights_sum_to_one():
    assert simplex_shares(np.array([1.0, 2.0, 1.0])).tolist() == [0.25, 0.5, 0.25]
    rng = np.random.default_rng(5)
    for n in (1, 2, 3, 7, 50):
        shares = simplex_shares(rng.uniform(1e-9, 1e3, n))
        assert abs(shares.sum() - 1.0) <= 1e-12 and np.all(shares > 0.0)


def test_uplink_rejects_nonpositive_multipliers():
    cfg = SystemConfig()
    pop = make_pop(2)
    alloc = make_alloc(2, delta=0.5, gamma=0.5, lam_offload=[0.0, 1.0])
    dim = 100
    with pytest.raises(ValidationError):
        solve_uplink(pop, alloc, dim, cfg)


def test_multipliers_unchanged_when_budget_is_met():
    cfg = SystemConfig()
    assert update_multipliers(1.0, 2.0, 0.5, cfg) == (0.5, 0.5)


def test_multipliers_step_on_violation():
    cfg = SystemConfig()  # increment 0.05
    lam_off, lam_up = update_multipliers(3.0, 2.0, 0.5, cfg)
    assert lam_off == pytest.approx(0.55)
    assert lam_up == pytest.approx(0.45)


def test_multipliers_clamp_near_one():
    cfg = SystemConfig()
    lam_off, lam_up = update_multipliers(3.0, 2.0, 0.99, cfg)
    assert lam_off == 1.0 - LAMBDA_MIN
    assert lam_up == pytest.approx(LAMBDA_MIN, rel=1e-12)


def test_gamma_population_matches_one_user_answers():
    # interior, clamped at 1, exhausted budget and full offload in one call
    cases = [gamma_instance(target, share=0.25) for target in (0.7, 2.0, 0.5, 0.3)]
    users = [pop for pop, *_ in cases]
    users[2] = replace(users[2], energy_budget=users[2].energy_budget * 0.1)
    _, _, dim, cfg = cases[0]
    alloc = make_alloc(4, delta=[0.4, 0.4, 0.4, 1.0], gamma=0.3)
    gamma, exhausted = solve_gamma(join(users), alloc, dim, cfg)
    for i, user in enumerate(users):
        alone = make_alloc(1, delta=alloc.delta[i], gamma=0.3, offload=[0.25], upload=[0.25])
        assert (gamma[i], exhausted[i]) == gamma_of(user, alone, dim, cfg)
    assert gamma.tolist() == [pytest.approx(0.7, rel=1e-12), 1.0, 0.0, 0.0]
    assert exhausted.tolist() == [False, False, True, False]


def test_multipliers_update_every_user_at_once():
    cfg = SystemConfig()
    lam_off, lam_up = update_multipliers(np.array([1.0, 3.0, 3.0]), np.array([2.0, 2.0, 2.0]),
                                         np.array([0.5, 0.5, 0.99]), cfg)
    assert lam_off == pytest.approx([0.5, 0.55, 1.0 - LAMBDA_MIN], rel=1e-12)
    assert np.array_equal(lam_up, 1.0 - lam_off)
