from dataclasses import replace

import mpmath
import numpy as np
import pytest

from mecfl import costs, io
from mecfl.errors import DegenerateDivisor
from mecfl.orchestrator import run_proposed, run_traditional
from mecfl.types import Population, SystemConfig

from helpers import desk_spec, make_alloc, make_model, make_user

# Unit-SNR user: R = bandwidth = 20e6 bit/s.
UNIT_SNR_GAIN = 5e-9


def unit_rate_user(uid=0, cpu=1e9, samples=10000, budget=50.0):
    return make_user(uid=uid, power=0.2, gain=UNIT_SNR_GAIN, cpu=cpu,
                     budget=budget, samples=samples)


def pop_of(*users):
    return Population.from_users(list(users))


def energy_of(user, alloc, model, cfg):
    (energy,) = costs.total_energy(pop_of(user), alloc, model, cfg)
    return energy


def time_of(user, alloc, model, cfg):
    (seconds,) = costs.local_time(pop_of(user), alloc, model, cfg)
    return seconds


def test_local_time_full_offload_leaves_upload_term():
    # delta=1: no local training, only the weight upload remains
    cfg = SystemConfig(bytes_per_sample=100.0)
    user = unit_rate_user()
    model = make_model([user], dim=6250)          # 50 kB of weights -> 4e5 bits
    alloc = make_alloc(1, delta=1.0, gamma=0.0, upload=[0.4])
    assert time_of(user, alloc, model, cfg) == pytest.approx(0.05)


def test_local_time_hand_evaluated_instance():
    # 1e6 B of data at 100 cyc/B over 1e9 cyc/s -> 0.1 s, plus a 0.05 s upload
    cfg = SystemConfig(bytes_per_sample=100.0)
    user = unit_rate_user()
    model = make_model([user], dim=6250)
    alloc = make_alloc(1, delta=0.0, gamma=1.0, upload=[0.4])
    assert time_of(user, alloc, model, cfg) == pytest.approx(0.15)


def test_local_time_doubling_gamma_halves_training_term():
    cfg = SystemConfig(bytes_per_sample=100.0)
    user = unit_rate_user()
    model = make_model([user], dim=6250)
    slow = make_alloc(1, delta=0.0, gamma=0.25, upload=[0.4])
    fast = make_alloc(1, delta=0.0, gamma=0.5, upload=[0.4])
    upload = 0.05
    t_slow = time_of(user, slow, model, cfg) - upload
    t_fast = time_of(user, fast, model, cfg) - upload
    assert t_fast == pytest.approx(t_slow / 2)


def test_local_energy_zero_gamma_is_upload_only():
    cfg = SystemConfig(bytes_per_sample=100.0)
    user = unit_rate_user()
    model = make_model([user], dim=6250)
    alloc = make_alloc(1, delta=0.0, gamma=0.0, upload=[0.4])
    assert energy_of(user, alloc, model, cfg) == pytest.approx(0.2 * 0.05)


def test_local_energy_full_offload_drops_compute_term():
    # upload 0.2 W x 0.05 s plus offload 0.2 W x 8e6 bits / 2e7 bit/s; no compute
    cfg = SystemConfig(bytes_per_sample=100.0)
    user = unit_rate_user()
    model = make_model([user], dim=6250)
    alloc = make_alloc(1, delta=1.0, gamma=1.0, upload=[0.4])
    assert energy_of(user, alloc, model, cfg) == pytest.approx(0.2 * 0.05 + 0.2 * 0.4)


def test_local_energy_compute_term_hand_evaluated():
    # 1e-28 * 1e6 B * 100 cyc/B * (1.2e9)^2 = 1e-28 * 1e8 * 1.44e18 = 0.0144 J
    cfg = SystemConfig(bytes_per_sample=100.0)
    user = unit_rate_user(cpu=1.2e9)
    model = make_model([user], dim=6250)
    alloc = make_alloc(1, delta=0.0, gamma=1.0, upload=[0.4])
    upload_energy = 0.2 * 0.05
    energy = energy_of(user, alloc, model, cfg)
    assert energy - upload_energy == pytest.approx(0.0144)


def test_offload_energy_zero_delta_is_zero_even_without_share():
    cfg = SystemConfig(bytes_per_sample=100.0)
    user = unit_rate_user()
    model = make_model([user], dim=6250)
    no_share = make_alloc(1, delta=0.0, gamma=0.5, offload=[0.0])
    full_share = make_alloc(1, delta=0.0, gamma=0.5, offload=[1.0])
    assert energy_of(user, no_share, model, cfg) == energy_of(user, full_share, model, cfg)


# With delta = 1 nothing is trained locally, and the 50 kB weight upload at
# a 0.4 share costs 0.2 W x 0.05 s: the rest of the energy is the offload.
UPLOAD_ENERGY = 0.2 * 0.05


def offload_energy_of(user, alloc, cfg):
    return energy_of(user, alloc, make_model([user], dim=6250), cfg) - UPLOAD_ENERGY


def test_offload_energy_power_times_transmit_time():
    # 8e6 bits at 1e7 bit/s is 0.8 s at 0.2 W -> 0.16 J
    cfg = SystemConfig(bytes_per_sample=100.0)
    user = unit_rate_user()
    alloc = make_alloc(1, delta=1.0, gamma=0.5, offload=[0.5], upload=[0.4])
    assert offload_energy_of(user, alloc, cfg) == pytest.approx(0.16)


def test_offload_energy_inverse_in_share():
    cfg = SystemConfig(bytes_per_sample=100.0)
    user = unit_rate_user()
    narrow = make_alloc(1, delta=1.0, gamma=0.5, offload=[0.2], upload=[0.4])
    wide = make_alloc(1, delta=1.0, gamma=0.5, offload=[0.4], upload=[0.4])
    assert offload_energy_of(user, wide, cfg) == pytest.approx(
        offload_energy_of(user, narrow, cfg) / 2)


def test_edge_time_total_no_offload():
    cfg = SystemConfig(bytes_per_sample=100.0)
    users = [unit_rate_user(uid=0), unit_rate_user(uid=1)]
    alloc = make_alloc(2, delta=0.0, gamma=0.5)
    assert costs.edge_time_total(pop_of(*users), alloc, cfg) == 0.0


def test_edge_time_total_single_user():
    # 2 s offload plus 0.5 s edge compute
    cfg = SystemConfig(bytes_per_sample=100.0, edge_cpu_hz=2e8)
    user = unit_rate_user()
    alloc = make_alloc(1, delta=1.0, gamma=0.5, offload=[0.2])
    assert costs.edge_time_total(pop_of(user), alloc, cfg) == pytest.approx(2.5)


def two_user_edge_instance():
    # offload times {1 s, 3 s}, shared edge compute 0.5 s
    cfg = SystemConfig(bytes_per_sample=100.0, edge_cpu_hz=4e8)
    users = [unit_rate_user(uid=0), unit_rate_user(uid=1)]
    alloc = make_alloc(2, delta=1.0, gamma=0.5, offload=[0.4, 2.0 / 15.0])
    return cfg, users, alloc


def test_edge_time_total_max_plus_sum():
    cfg, users, alloc = two_user_edge_instance()
    assert costs.edge_time_total(pop_of(*users), alloc, cfg) == pytest.approx(3.5)


def test_edge_time_user_offload_plus_shared():
    cfg, users, alloc = two_user_edge_instance()
    per_user = costs.edge_time_user(pop_of(*users), alloc, cfg)
    assert per_user == pytest.approx([1.5, 3.5])


def test_edge_time_user_zero_delta_sees_only_shared_compute():
    cfg = SystemConfig(bytes_per_sample=100.0, edge_cpu_hz=4e8)
    users = [unit_rate_user(uid=0), unit_rate_user(uid=1)]
    alloc = make_alloc(2, delta=[0.0, 1.0], gamma=0.5, offload=[0.4, 0.4])
    shared = 1e6 * 100 / 4e8
    assert costs.edge_time_user(pop_of(*users), alloc, cfg)[0] == pytest.approx(shared)


def test_edge_time_user_single_user_equals_total():
    cfg = SystemConfig(bytes_per_sample=100.0, edge_cpu_hz=2e8)
    pop = pop_of(unit_rate_user())
    alloc = make_alloc(1, delta=1.0, gamma=0.5, offload=[0.2])
    (per_user,) = costs.edge_time_user(pop, alloc, cfg)
    assert per_user == costs.edge_time_total(pop, alloc, cfg)


def test_edge_time_user_max_equals_total_on_random_instances():
    rng = np.random.default_rng(8)
    cfg = SystemConfig()
    for _ in range(50):
        n = int(rng.integers(2, 6))
        users = [make_user(uid=i, gain=rng.uniform(1e-8, 1e-6),
                           samples=int(rng.integers(50, 500))) for i in range(n)]
        shares = rng.dirichlet(np.ones(n))
        alloc = make_alloc(n, delta=rng.uniform(0.01, 1.0, n),
                           gamma=rng.uniform(0.1, 1.0, n),
                           offload=shares, upload=shares[::-1].copy())
        offloaded = [alloc.delta[i] * costs.dataset_bytes(u, cfg) for i, u in enumerate(users)]
        own = [costs.transmit_time(offloaded[i], alloc.uplink_offload[i], costs.base_rate(u, cfg))
               for i, u in enumerate(users)]
        shared = sum(offloaded) * cfg.cycles_per_byte / cfg.edge_cpu_hz
        pop = pop_of(*users)
        per_user = costs.edge_time_user(pop, alloc, cfg)
        assert per_user == pytest.approx(np.array(own) + shared, rel=1e-12)
        assert per_user.max() == costs.edge_time_total(pop, alloc, cfg)


def desk_run(runner, rounds=4):
    spec = desk_spec(seed=2, user_count=4, samples_per_user=60)
    users, datasets = io.synthesize_users(spec)
    cfg = io.effective_config(spec)
    result = runner(users, datasets, cfg, rounds, test_dataset=io.load_test_dataset(spec))
    return Population.from_users(users), cfg, result


def test_total_time_is_max_of_paths():
    pop, cfg, result = desk_run(run_proposed)
    for metrics, alloc in zip(result.trace, result.alloc_trace):
        t_local = costs.local_time(pop, alloc, result.final_model, cfg)
        t_edge = costs.edge_time_total(pop, alloc, cfg)
        assert np.array_equal(metrics.t_local, t_local)
        assert metrics.t_edge == t_edge
        assert metrics.t_total == max(t_local.max(), t_edge)


def test_total_time_reduces_to_local_without_offload():
    _, _, result = desk_run(run_traditional)
    for metrics in result.trace:
        assert metrics.t_edge == 0.0
        assert metrics.t_total == metrics.t_local.max()


def test_total_energy_additivity():
    rng = np.random.default_rng(9)
    cfg = SystemConfig()
    for _ in range(30):
        user = make_user(gain=rng.uniform(1e-8, 1e-6), samples=int(rng.integers(50, 500)))
        alloc = make_alloc(1, delta=rng.uniform(0.01, 0.99), gamma=rng.uniform(0.1, 1.0),
                           offload=[rng.uniform(0.1, 0.9)], upload=[rng.uniform(0.1, 0.9)])
        model = make_model([user], dim=int(rng.integers(10, 500)))
        total = energy_of(user, alloc, model, cfg)
        data, rate = costs.dataset_bytes(user, cfg), costs.base_rate(user, cfg)
        parts = (costs.training_energy(cfg.chip_capacitance, (1.0 - alloc.delta[0]) * data,
                                       cfg.cycles_per_byte, alloc.gamma[0], user.cpu_hz)
                 + costs.transmit_energy(user.transmit_power, costs.weights_bytes(model, cfg),
                                         alloc.uplink_weight[0], rate)
                 + costs.transmit_energy(user.transmit_power, alloc.delta[0] * data,
                                         alloc.uplink_offload[0], rate))
        assert total == parts


def test_edge_time_convex_in_offload_share():
    from mecfl.oracle import finite_diff

    rng = np.random.default_rng(14)
    cfg = SystemConfig()
    for _ in range(200):
        user = make_user(gain=rng.uniform(1e-8, 1e-6), samples=int(rng.integers(50, 2000)))
        share = rng.uniform(0.05, 0.95)
        alloc = make_alloc(1, delta=rng.uniform(0.1, 1.0), gamma=0.5, offload=[share])

        def t_edge(xs):
            # the slowest user's edge time at each stencil point, one candidate per point
            stack = replace(alloc, uplink_offload=xs[:, None])
            return costs.edge_time_user(pop_of(user), stack, cfg).max(axis=-1)

        assert finite_diff(t_edge, share, 2, 1e-4) >= -1e-6


def test_degenerate_divisors_raise():
    cfg = SystemConfig()
    user = unit_rate_user()
    model = make_model([user], dim=100)
    with pytest.raises(DegenerateDivisor):
        time_of(user, make_alloc(1, delta=0.5, gamma=0.0), model, cfg)
    with pytest.raises(DegenerateDivisor):
        time_of(user, make_alloc(1, delta=0.5, gamma=0.5, upload=[0.0]), model, cfg)
    with pytest.raises(DegenerateDivisor):
        energy_of(user, make_alloc(1, delta=0.5, gamma=0.5, upload=[0.0]), model, cfg)
    with pytest.raises(DegenerateDivisor):
        energy_of(user, make_alloc(1, delta=0.5, gamma=0.5, offload=[0.0]), model, cfg)
    with pytest.raises(DegenerateDivisor):
        costs.edge_time_total(pop_of(user), make_alloc(1, delta=0.5, offload=[0.0]), cfg)


def test_round_costs_of_a_stack_equal_each_candidate_alone():
    cfg = SystemConfig()
    users = [make_user(uid=i, samples=400 + 500 * i, gain=10.0 ** -(6 + i)) for i in range(3)]
    pop = pop_of(*users)
    model = make_model(users, dim=300)
    alloc = make_alloc(3, delta=[0.0, 0.3, 0.8], gamma=[1.0, 0.5, 0.2])
    # user 0 offloads nothing, so a zero offload share (last row) is not degenerate for it
    candidates = {"uplink_offload": [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1], [0.0, 0.5, 0.5]],
                  "uplink_weight": [[0.2, 0.3, 0.5], [0.6, 0.3, 0.1]],
                  "gamma": [[0.9, 0.4, 0.7], [0.1, 1.0, 0.5]],
                  "delta": [[0.5, 0.0, 1.0], [0.0, 0.9, 0.2]]}
    for field, rows in candidates.items():
        stack = replace(alloc, **{field: rows})
        for cost, args in ((costs.local_time, (model, cfg)), (costs.total_energy, (model, cfg)),
                           (costs.edge_time_user, (cfg,))):
            alone = [cost(pop, replace(alloc, **{field: row}), *args) for row in rows]
            assert np.array_equal(cost(pop, stack, *args), alone)


def test_degenerate_candidate_in_a_stack_names_its_user():
    cfg = SystemConfig()
    users = [make_user(uid=0), make_user(uid=1)]
    stack = make_alloc(2, delta=0.5, offload=[[0.5, 0.5], [0.5, 0.0]])
    with pytest.raises(DegenerateDivisor, match="^user 1: delta>0 needs a positive offload"):
        costs.edge_time_user(pop_of(*users), stack, cfg)


# ---------------------------------------------------------------- uplink base rate
# R = bandwidth * log2(1 + p*g/n0)

def cfg_with(noise=1e-9):
    return SystemConfig(noise_power=noise)


def test_base_rate_unit_snr():
    # p*g/n0 = 1 -> log2(2) = 1 -> rate equals the bandwidth
    user = make_user(power=0.2, gain=5e-9)
    assert costs.base_rate(user, cfg_with()) == pytest.approx(20e6)


def test_base_rate_snr_three():
    user = make_user(power=0.2, gain=15e-9)
    assert costs.base_rate(user, cfg_with()) == pytest.approx(40e6)


def test_base_rate_against_high_precision_reference():
    # amplitude computed independently with mpmath at 50 digits
    user = make_user(power=0.2, gain=1e-7)
    expected = float(20e6 * mpmath.log(mpmath.mpf(21), 2))
    assert costs.base_rate(user, cfg_with()) == pytest.approx(expected, rel=1e-14)


def test_base_rate_monotone_in_gain():
    rng = np.random.default_rng(3)
    cfg = cfg_with()
    for _ in range(100):
        g_lo, g_hi = sorted(rng.uniform(1e-9, 1e-5, 2))
        if g_lo == g_hi:
            continue
        lo, hi = costs.base_rate(Population.from_users([make_user(uid=0, gain=g_lo),
                                                        make_user(uid=1, gain=g_hi)]), cfg)
        assert hi > lo
        assert costs.base_rate(make_user(gain=g_hi), cfg) == hi
