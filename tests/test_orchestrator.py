import tracemalloc

import numpy as np
import pytest
from dataclasses import replace

from mecfl import costs, io
from mecfl.costs import base_rate
from mecfl.errors import DegenerateDivisor, SimulationError, ValidationError
from mecfl.learning import (
    Dataset,
    concat_datasets,
    split_dataset,
    weight_dim,
)
from mecfl.optimizer import solve_delta, solve_gamma, solve_uplink
from mecfl.orchestrator import (
    _SEED_CAP,
    _train_round,
    resource_round,
    run_centralized,
    run_proposed,
    run_traditional,
)
from mecfl.types import AllocationState, ModelState, SystemConfig, validate_allocation

from helpers import desk_spec, loss_gradient, make_alloc, make_pop, stack


def tiny_population(seed=0, **overrides):
    spec = desk_spec(seed=seed, user_count=4, samples_per_user=60, **overrides)
    pop, datasets = io.synthesize_users(spec)
    return pop, datasets, io.load_test_dataset(spec), io.effective_config(spec)


def test_single_iteration_trace():
    pop, datasets, test, cfg = tiny_population()
    result = run_proposed(pop, datasets, cfg, 1, test_dataset=test)
    assert result.iterations_used == 1
    assert len(result.trace) == 1
    assert not result.converged


def test_a_round_trains_on_the_users_rows_without_copying_them():
    # 50 x 1200 samples at the default system settings: the training pool is
    # the users' one shuffled pool, so a round allocates 1.2x its rows, not
    # 2.3x with a pooled copy
    spec = io.ExperimentSpec(user_count=50, samples_per_user=1200)
    pop, datasets = io.synthesize_users(spec)
    test, cfg = io.load_test_dataset(spec), io.effective_config(spec)
    tracemalloc.start()
    try:
        run_proposed(pop, datasets, cfg, 1, test_dataset=test)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pool_bytes = sum(d.rows.nbytes for d in datasets)
    assert peak <= 1.5 * pool_bytes, f"a round allocated {peak / pool_bytes:.2f}x the pool"


def test_infinite_tolerance_converges_at_two():
    pop, datasets, test, cfg = tiny_population()
    cfg = replace(cfg, convergence_tol=float("inf"))
    result = run_proposed(pop, datasets, cfg, 50, test_dataset=test)
    assert result.converged
    assert result.iterations_used == 2


@pytest.mark.parametrize("seed", [0, 7])
def test_stop_rule_waits_on_the_test_loss_on_the_default_desk_spec(seed):
    # one absolute tolerance compares seconds and MSE: the round time settles
    # within it after one round change, the test loss does not in 30 rounds
    spec = io.ExperimentSpec(seed=seed)
    pop, datasets = io.synthesize_users(spec)
    cfg = io.effective_config(spec)
    result = run_proposed(pop, datasets, cfg, 30, test_dataset=io.load_test_dataset(spec))
    assert not result.converged and result.iterations_used == 30
    t_total = np.array([m.t_total for m in result.trace])
    test_loss = np.array([m.test_loss for m in result.trace])
    assert np.all(np.abs(np.diff(t_total))[1:] <= cfg.convergence_tol)
    assert np.all(np.abs(np.diff(test_loss)) > cfg.convergence_tol)


def test_identical_seeds_reproduce_bitwise():
    pop, datasets, test, cfg = tiny_population(seed=3)
    a = run_proposed(pop, datasets, cfg, 8, test_dataset=test)
    b = run_proposed(pop, datasets, cfg, 8, test_dataset=test)
    assert len(a.trace) == len(b.trace)
    for ma, mb in zip(a.trace, b.trace):
        assert ma.test_loss == mb.test_loss
        assert ma.t_total == mb.t_total
        assert np.array_equal(ma.e_total, mb.e_total)
    assert np.array_equal(a.final_model.global_weights, b.final_model.global_weights)
    assert np.array_equal(a.alloc_trace[-1].delta, b.alloc_trace[-1].delta)


def test_forced_zero_delta_is_bit_identical_to_traditional():
    pop, datasets, test, cfg = tiny_population(seed=4)
    forced = run_proposed(pop, datasets, cfg, 10, test_dataset=test, force_delta=0.0)
    baseline = run_traditional(pop, datasets, cfg, 10, test_dataset=test)
    assert len(forced.trace) == len(baseline.trace)
    for mf, mb in zip(forced.trace, baseline.trace):
        assert mf.test_loss == mb.test_loss
        assert mf.train_loss == mb.train_loss
        assert mf.t_total == mb.t_total
        assert np.array_equal(mf.t_local, mb.t_local)
        assert np.array_equal(mf.e_total, mb.e_total)
    assert np.array_equal(forced.final_model.global_weights,
                          baseline.final_model.global_weights)


def test_traditional_has_no_edge_time():
    pop, datasets, test, cfg = tiny_population(seed=5)
    result = run_traditional(pop, datasets, cfg, 6, test_dataset=test)
    assert all(m.t_edge == 0.0 for m in result.trace)
    assert all(np.all(alloc.delta == 0.0) for alloc in result.alloc_trace)


def test_traditional_loss_trace_non_increasing():
    hits = 0
    for seed in (1, 2, 3):
        pop, datasets, test, cfg = tiny_population(seed=seed)
        result = run_traditional(pop, datasets, cfg, 20, test_dataset=test)
        losses = [m.train_loss for m in result.trace]
        if all(b <= a for a, b in zip(losses, losses[1:])):
            hits += 1
    assert hits >= 2


def test_centralized_aggregate_equals_edge_model():
    pop, datasets, test, cfg = tiny_population(seed=6)
    result = run_centralized(pop, datasets, cfg, 6, test_dataset=test)
    assert np.array_equal(result.final_model.global_weights, result.final_model.edge_weights)
    assert result.final_model.edge_trainset_size == pop.dataset_size.sum()


def test_centralized_local_time_is_upload_only():
    pop, datasets, test, cfg = tiny_population(seed=6)
    result = run_centralized(pop, datasets, cfg, 6, test_dataset=test)
    last, alloc = result.trace[-1], result.alloc_trace[-1]
    weight_bytes = costs.weights_bytes(result.final_model.global_weights.size, cfg)
    for i, rate in enumerate(base_rate(pop, cfg)):
        upload = costs.transmit_time(weight_bytes, alloc.uplink_weight[i], rate)
        assert last.t_local[i] == pytest.approx(upload, rel=1e-12)


def test_centralized_loss_not_worse_than_traditional():
    wins = 0
    for seed in (1, 2, 3):
        pop, datasets, test, cfg = tiny_population(seed=seed)
        cen = run_centralized(pop, datasets, cfg, 15, test_dataset=test)
        trad = run_traditional(pop, datasets, cfg, 15, test_dataset=test)
        if cen.trace[-1].test_loss <= trad.trace[-1].test_loss:
            wins += 1
    assert wins >= 2


def test_every_iteration_stays_feasible():
    pop, datasets, test, cfg = tiny_population(seed=7)
    result = run_proposed(pop, datasets, cfg, 15, test_dataset=test)
    for alloc in result.alloc_trace:
        validate_allocation(alloc, pop.n_users)
        assert alloc.uplink_offload.sum() <= 1.0 + 1e-9
        assert alloc.uplink_weight.sum() <= 1.0 + 1e-9


def test_trace_and_alloc_trace_lengths_match():
    pop, datasets, test, cfg = tiny_population(seed=8)
    result = run_proposed(pop, datasets, cfg, 5, test_dataset=test)
    assert len(result.trace) == len(result.alloc_trace) == result.iterations_used


def test_errors_carry_iteration_context():
    pop, datasets, test, cfg = tiny_population(seed=9)
    # budgets far below the transmission cost with offloading forbidden:
    # no CPU budget remains, local training time diverges
    starved = replace(pop, energy_budget=np.full(pop.n_users, 1e-15))
    with pytest.raises(SimulationError, match="iteration 1") as excinfo:
        run_proposed(starved, datasets, cfg, 5, test_dataset=test, force_delta=0.0)
    # the iteration prefix keeps the class of the error it wraps
    assert type(excinfo.value) is DegenerateDivisor
    assert type(excinfo.value.__cause__) is DegenerateDivisor


def test_starved_budget_degrades_to_full_offloading():
    pop, datasets, test, cfg = tiny_population(seed=9)
    starved = replace(pop, energy_budget=np.full(pop.n_users, 1e-15))
    result = run_proposed(starved, datasets, cfg, 5, test_dataset=test)
    assert np.all(result.alloc_trace[-1].delta == 1.0)
    assert np.all(result.alloc_trace[-1].gamma == 0.0)


def test_desk_scale_seed7_converges_quickly_within_budget():
    spec = desk_spec(seed=7)
    pop, datasets = io.synthesize_users(spec)
    test = io.load_test_dataset(spec)
    cfg = io.effective_config(spec)
    result = run_proposed(pop, datasets, cfg, 100, test_dataset=test)
    assert result.converged
    assert result.iterations_used <= 30
    last = result.trace[-1]
    assert all(last.e_total <= pop.energy_budget * (1 + 1e-3))


def test_population_validation():
    pop, datasets, test, cfg = tiny_population()
    with pytest.raises(ValidationError):
        run_proposed(pop, datasets[:2], cfg, 2, test_dataset=test)
    with pytest.raises(ValidationError):
        run_proposed(pop, datasets, cfg, 0, test_dataset=test)


@pytest.mark.parametrize("run", [run_proposed, run_traditional, run_centralized])
@pytest.mark.parametrize("rounds", [2.5, 2.0, True])
def test_run_refuses_a_round_count_that_is_no_integer(run, rounds):
    # 2.5 used to escape as a bare TypeError from range(), and True ran one round
    pop, datasets, test, cfg = tiny_population()
    with pytest.raises(ValidationError, match=r"^max_iterations must be an integer >= 1, got "):
        run(pop, datasets, cfg, rounds, test_dataset=test)


@pytest.mark.parametrize("frozen, force_delta, message", [
    pytest.param(make_alloc(4, delta=np.full((2, 4), 0.5)), None,
                 r"frozen must be one allocation of 4 users, got fields of shape \(2, 4\)$",
                 id="stacked"),
    pytest.param(make_alloc(3), None,
                 r"frozen must be one allocation of 4 users, got fields of shape \(3,\)$",
                 id="user-count"),
    pytest.param(make_alloc(4), 0.0, "frozen sets every offload fraction: pass no force_delta$",
                 id="force_delta"),
])
def test_frozen_run_refuses_a_stack_another_user_count_and_force_delta(frozen, force_delta,
                                                                       message):
    pop, datasets, test, cfg = tiny_population()
    with pytest.raises(ValidationError, match=f"^{message}"):
        run_proposed(pop, datasets, cfg, 2, test_dataset=test, frozen=frozen,
                     force_delta=force_delta)


def test_frozen_run_trains_every_round_at_its_allocation_and_plays_no_game(monkeypatch):
    spec = desk_spec(seed=6, user_count=2, samples_per_user=60)
    pop, datasets = io.synthesize_users(spec)
    test, cfg = io.load_test_dataset(spec), io.effective_config(spec)
    frozen = make_alloc(2, delta=[0.25, 0.5], gamma=[1.0, 0.6], offload=[0.7, 0.3],
                        upload=[0.3, 0.7], lam_offload=[0.2, 0.9], lam_local=[1.5, 0.0])

    def no_game(*args, **kwargs):
        raise AssertionError("a frozen run played the resource game")

    monkeypatch.setattr("mecfl.orchestrator.resource_round", no_game)
    result = run_proposed(pop, datasets, cfg, 5, test_dataset=test, frozen=frozen,
                          stop_on_convergence=False)
    assert len(result.alloc_trace) == 5
    for alloc in result.alloc_trace:
        for name in FIELDS:
            assert np.array_equal(getattr(alloc, name), getattr(frozen, name)), name
    dim = weight_dim(datasets[0].n_features, datasets[0].n_classes)
    for m in result.trace:
        assert np.array_equal(m.t_local, costs.local_time(pop, frozen, dim, cfg))
        assert m.t_edge == costs.edge_time_total(pop, frozen, cfg)
    # nothing is drawn for the allocation: round 0's seeds are the generator's first draws
    rng = np.random.default_rng(cfg.rng_seed)
    pool = concat_datasets(datasets, datasets[0].n_classes, datasets[0].n_features)
    model = ModelState.initial(pop.n_users, dim, pop.dataset_size)
    for _ in range(5):
        model = _train_round(pop, pool, frozen.delta, model, cfg, rng)
    assert np.array_equal(model.global_weights, result.final_model.global_weights)


def test_run_rejects_a_dataset_count_that_differs_from_the_user_count():
    pop, datasets, test, cfg = tiny_population()
    with pytest.raises(ValidationError, match="need one dataset per user"):
        run_proposed(pop, datasets + datasets[:1], cfg, 2, test_dataset=test)


@pytest.mark.parametrize("run", [run_proposed, run_traditional, run_centralized])
def test_run_rejects_a_stacked_population(run):
    # a stack of instances is for the verification checks, never a round's input
    pop, datasets, test, cfg = tiny_population()
    stack = replace(pop, **{name: np.stack([getattr(pop, name)] * 2)
                            for name in pop._FIELDS})
    with pytest.raises(ValidationError, match=r"1-d population fields, not \(2, 4\)"):
        run(stack, datasets, cfg, 2, test_dataset=test)


def test_run_names_the_user_whose_dataset_size_differs():
    pop, datasets, test, cfg = tiny_population()
    datasets[2] = datasets[2].take(np.arange(datasets[2].sample_count - 1))
    with pytest.raises(ValidationError, match="user 2: population says 60 samples, "
                                              "dataset holds 59"):
        run_proposed(pop, datasets, cfg, 2, test_dataset=test)


def test_run_refuses_a_user_whose_uplink_rate_is_0():
    # at a gain of 1e-30, 1 + SNR rounds to 1: round 0 used to divide by zero
    # and round 1 to fail in simplex_shares
    pop, datasets, test, cfg = tiny_population()
    gains = pop.channel_gain.copy()
    gains[1] = 1e-30
    with pytest.raises(ValidationError, match=r"^user 1: uplink rate is 0 at SNR 2e-22$"):
        run_proposed(replace(pop, channel_gain=gains), datasets, cfg, 3, test_dataset=test)


@pytest.mark.parametrize("n_features, n_classes", [(3, 4), (16, 5)])
def test_run_rejects_datasets_of_different_shapes(n_features, n_classes):
    pop, datasets, test, cfg = tiny_population()
    datasets[1] = io.synthesize_dataset(datasets[1].sample_count, n_features, n_classes, seed=1)
    with pytest.raises(ValidationError, match="must share feature and class counts"):
        run_proposed(pop, datasets, cfg, 2, test_dataset=test)


@pytest.mark.parametrize("n_features, n_classes", [(3, 4), (16, 5)])
def test_run_rejects_a_test_set_of_another_shape(n_features, n_classes):
    pop, datasets, test, cfg = tiny_population()
    test = io.synthesize_dataset(test.sample_count, n_features, n_classes, seed=1)
    with pytest.raises(ValidationError,
                       match="^test dataset shape does not match the training data$"):
        run_proposed(pop, datasets, cfg, 2, test_dataset=test)


def game_instance():
    """Six users: four interior, user 2 without offload bandwidth, user 3 out of budget."""
    cfg = SystemConfig()
    gains = [1e-6, 3e-7, 2e-6, 5e-7, 1e-6, 8e-7]
    budgets = [50.0, 50.0, 50.0, 1e-9, 50.0, 50.0]
    pop = make_pop(gain=gains, budget=budgets, samples=[500 + 100 * i for i in range(6)])
    alloc = make_alloc(6, delta=[0.9, 0.8, 0.0, 0.5, 0.9, 0.7], gamma=0.5,
                       offload=[0.2, 0.2, 0.0, 0.2, 0.2, 0.2], upload=np.full(6, 1 / 6))
    return pop, alloc, 100, cfg


def best_responses(pop, alloc, dim, cfg):
    """Every CPU fraction, then the offload equilibrium, as one round begins."""
    gamma, _ = solve_gamma(pop, alloc, dim, cfg)
    alloc = replace(alloc, gamma=gamma)
    return replace(alloc, delta=solve_delta(pop, alloc, dim, cfg))


def test_offload_equilibrium_balances_every_interior_user():
    pop, alloc, dim, cfg = game_instance()
    new = best_responses(pop, alloc, dim, cfg)
    assert new.delta[2] == 0.0
    assert new.gamma[3] == 0.0 and new.delta[3] == 1.0
    t_local = costs.local_time(pop, new, dim, cfg)
    t_edge = costs.edge_time_user(pop, new, cfg)
    for i in (0, 1, 4, 5):
        # user i answers the others' fractions of the same equilibrium
        assert 0.0 < new.delta[i] < 1.0
        assert t_local[i] == pytest.approx(t_edge[i], rel=1e-9)


def round_inputs(n_users, delta, seed=11):
    """The datasets of ``n_users`` desk users and their ``_train_round`` arguments at ``delta``."""
    spec = desk_spec(seed=seed, user_count=n_users, samples_per_user=45)
    pop, datasets = io.synthesize_users(spec)
    cfg = io.effective_config(spec)
    n_features, n_classes = datasets[0].n_features, datasets[0].n_classes
    dim = weight_dim(n_features, n_classes)
    model = replace(ModelState.initial(n_users, dim, pop.dataset_size),
                    global_weights=np.random.default_rng(seed).normal(size=dim))
    alloc = AllocationState.uniform(n_users, delta=delta, gamma=0.5)
    train_pool = concat_datasets(datasets, n_classes, n_features)
    return datasets, (pop, train_pool, alloc.delta, model, cfg, np.random.default_rng(seed))


def train_alone(w_init, data, epochs, lr, rng, batch_size):
    """Plain per-batch SGD of one user on ``data``, its epoch orders drawn from ``rng``."""
    w = np.array(w_init, dtype=float)
    for _ in range(epochs):
        order = rng.permutation(data.sample_count)
        for start in range(0, data.sample_count, batch_size):
            batch = data.take(order[start:start + batch_size])
            w -= lr * loss_gradient(w, batch.features, batch.labels, batch.n_classes)
    return w


@pytest.mark.parametrize("delta", [
    pytest.param([0.0, 1.0, 0.5, 0.3, 1.0, 0.77], id="6-users"),
    # users that keep nothing (delta 1) between users that train
    pytest.param([0.0, 1.0, *np.linspace(0.02, 0.98, 35).tolist(), 1.0, 0.0, 0.5],
                 id="40-users"),
])
def test_round_local_weights_equal_per_user_training(delta):
    n_users = len(delta)
    datasets, args = round_inputs(n_users, delta)
    pop, before, cfg = args[0], args[3], args[4]
    after = _train_round(*args)
    # the round's three seeds, in its order: the split's, the local training's, the edge's
    split_seed, train_seed, _ = np.random.default_rng(11).integers(_SEED_CAP, size=3).tolist()
    kept_rows, _ = split_dataset(pop.dataset_size, delta, split_seed)
    starts = np.cumsum(pop.dataset_size) - pop.dataset_size
    shared = np.random.default_rng(train_seed)   # training users draw from it in user order
    for i, (data, kept) in enumerate(zip(datasets, kept_rows)):
        assert after.local_trainset_sizes[i] == kept.size
        if kept.size:   # the user's own rows, at its offset in the pool
            expected = train_alone(before.global_weights, data.take(kept - starts[i]),
                                   cfg.local_epochs, cfg.learning_rate, shared, cfg.batch_size)
        else:
            expected = before.global_weights    # offloads everything: keeps the global model
        assert np.array_equal(after.local_weights[i], expected)
    assert after.local_trainset_sizes[0] == datasets[0].sample_count
    offload_all = [i for i, d in enumerate(delta) if d == 1.0]
    assert np.array_equal(after.local_weights[offload_all],
                          np.tile(before.global_weights, (len(offload_all), 1)))
    assert after.edge_trainset_size == sum(d.sample_count for d in datasets) - sum(
        after.local_trainset_sizes)


@pytest.mark.parametrize("n_users", [3, 12])
def test_round_builds_at_most_two_datasets(monkeypatch, n_users):
    _, args = round_inputs(n_users, 0.4)
    built = []
    original = Dataset.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Dataset, "__post_init__", counting)
    _train_round(*args)
    # the edge pool and its shuffled copy, whatever the user count
    assert len(built) <= 2


FIELDS = ("delta", "gamma", "uplink_offload", "uplink_weight", "lambda_offload", "lambda_local")


def assert_same_allocations(got, expected):
    assert len(got) == len(expected)
    for k, (a, b) in enumerate(zip(got, expected)):
        for name in FIELDS:
            assert np.array_equal(getattr(a, name), getattr(b, name)), (k, name)


def run_case(case):
    """(pop, dim, cfg, result, delta pinned) of one run whose allocations are replayed."""
    if case == "binding":
        spec = desk_spec(seed=0, user_count=50, samples_per_user=200,
                         energy_budget_range=(5e-3, 2e-2))
    else:
        spec = desk_spec(seed=7)
    pop, datasets = io.synthesize_users(spec)
    test, cfg = io.load_test_dataset(spec), io.effective_config(spec)
    dim = weight_dim(datasets[0].n_features, datasets[0].n_classes)
    if case == "traditional":
        return pop, dim, cfg, run_traditional(pop, datasets, cfg, 15, test_dataset=test), True
    if case == "centralized":
        return pop, dim, cfg, run_centralized(pop, datasets, cfg, 15, test_dataset=test), True
    rounds = 8 if case == "binding" else 30
    result = run_proposed(pop, datasets, cfg, rounds, test_dataset=test,
                          stop_on_convergence=False)
    return pop, dim, cfg, result, False


@pytest.mark.parametrize("case", ["proposed", "traditional", "centralized", "binding"])
def test_resource_round_alone_replays_the_allocation_trace(case):
    # The allocation trace is a function of the population, the first
    # allocation and the weight dimension alone: no training is needed.
    pop, dim, cfg, result, pinned = run_case(case)
    allocs = [result.alloc_trace[0]]
    for _ in result.alloc_trace[1:]:
        allocs.append(resource_round(pop, allocs[-1], dim, cfg, delta_pinned=pinned))
    assert_same_allocations(allocs, result.alloc_trace)


def stacked_game():
    """Seven instances of 7 desk users: seeds 0-5 at random offload and CPU fractions, then
    seed 0 again with every offload fraction 0. Returns the populations, the allocations,
    one weight dimension per instance as ``(instances, 1)`` and the configuration."""
    rng = np.random.default_rng(5)
    pops = [io.synthesize_users(desk_spec(seed=seed, user_count=7))[0] for seed in range(6)]
    allocs = [AllocationState.uniform(7, delta=rng.uniform(0.0, 1.0, 7),
                                      gamma=rng.uniform(0.0, 1.0, 7)) for _ in pops]
    pops.append(pops[0])
    allocs.append(AllocationState.uniform(7, delta=0.0, gamma=rng.uniform(0.0, 1.0, 7)))
    return pops, allocs, rng.integers(100, 2000, (len(pops), 1)), SystemConfig()


def assert_stack_of(got, expected):
    """``got``, a stacked allocation, holds the bits of the allocations ``expected``."""
    for name in FIELDS:
        assert np.array_equal(getattr(got, name), [getattr(a, name) for a in expected]), name


@pytest.mark.parametrize("pinned", [False, True], ids=["free", "pinned"])
def test_a_stacked_resource_round_plays_each_instance_as_if_alone(pinned):
    pops, allocs, dims, cfg = stacked_game()
    pop, alloc = stack(pops), stack(allocs)
    for k in range(6):
        alloc = resource_round(pop, alloc, dims, cfg, delta_pinned=pinned)
        allocs = [resource_round(p, a, dim, cfg, delta_pinned=pinned)
                  for p, a, dim in zip(pops, allocs, dims[:, 0].tolist())]
        assert_stack_of(alloc, allocs)
    if pinned:   # the instance that offloads nothing kept its moot offload shares
        assert alloc.uplink_offload[-1].tolist() == [1 / 7] * 7


def test_sgd_settings_leave_the_allocation_trace_unchanged():
    spec = desk_spec(seed=7, user_count=20, samples_per_user=100)
    pop, datasets = io.synthesize_users(spec)
    test, cfg = io.load_test_dataset(spec), io.effective_config(spec)
    runs = [run_proposed(pop, datasets, settings, 8, test_dataset=test,
                         stop_on_convergence=False)
            for settings in (cfg, replace(cfg, learning_rate=0.01, local_epochs=2, batch_size=7))]
    assert runs[0].trace[-1].test_loss != runs[1].trace[-1].test_loss
    assert_same_allocations(runs[0].alloc_trace, runs[1].alloc_trace)


def extreme_population(rng, cfg, dim):
    """1 to 50 users: sizes down to 1, gains 1e-12 to 1e-3, and budgets 1e-3x to 1e3x
    the energy of the weight upload at an equal share."""
    n = int(rng.integers(1, 51))
    power, gain = rng.uniform(0.01, 1.0, n), 10 ** rng.uniform(-12, -3, n)
    rate = cfg.bandwidth_hz * np.log2(1.0 + power * gain / cfg.noise_power)
    upload = costs.transmit_energy(power, costs.weights_bytes(dim, cfg), 1.0 / n, rate)
    return make_pop(n, power=power, gain=gain, cpu=rng.uniform(1e8, 2e9, n),
                    budget=upload * 10 ** rng.uniform(-3, 3, n),
                    samples=np.where(rng.random(n) < 0.3, 1, np.ceil(10 ** rng.uniform(0, 4, n))))


@pytest.mark.parametrize("pinned", [None, 0.0, 1.0], ids=["free", "pinned-0", "pinned-1"])
def test_extreme_populations_stay_feasible_or_raise_a_simulation_error(pinned):
    # ROADMAP item 11, no SGD: every round gives a checked allocation whose
    # costs are finite and whose split partitions every user's rows, or
    # raises a SimulationError; pytest turns a RuntimeWarning into an error.
    # Budgets below the upload energy leave a user at gamma = 0; with delta
    # held at 0 (pinned, or by a zero offload share) its local time raises
    # DegenerateDivisor. Full offloading never trains locally and completes.
    rng = np.random.default_rng(11)
    cfg = SystemConfig()
    completed = 0
    for _ in range(20):
        dim = int(rng.integers(2, 2000))
        pop = extreme_population(rng, cfg, dim)
        delta = rng.uniform(0.0, 1.0, pop.n_users) if pinned is None else pinned
        alloc = AllocationState.uniform(pop.n_users, delta=delta,
                                        gamma=rng.uniform(0.0, 1.0, pop.n_users))
        for k in range(20):
            try:
                alloc = resource_round(pop, alloc, dim, cfg, delta_pinned=pinned is not None)
                round_costs = [costs.local_time(pop, alloc, dim, cfg),
                               costs.total_energy(pop, alloc, dim, cfg),
                               costs.edge_time_total(pop, alloc, cfg)]
            except SimulationError:
                assert pinned != 1.0
                break
            assert all(np.isfinite(c).all() and (np.asarray(c) >= 0).all() for c in round_costs)
            kept, offloaded = split_dataset(pop.dataset_size, alloc.delta, k)
            ends = np.cumsum(pop.dataset_size)
            for rows, end, size in zip(map(np.concatenate, zip(kept, offloaded)), ends,
                                       pop.dataset_size):
                assert np.sort(rows).tolist() == list(range(end - size, end))
        else:
            completed += 1
    assert completed >= (20 if pinned == 1.0 else 1)


# Metamorphic relations of the resource game (Chen et al., ACM CSUR 2018):
# 30 resource rounds of 50 desk users, no training, compared at rtol 1e-12.
METAMORPHIC_SEEDS = [0, 7, 11]


def resource_trace(pop, cfg, dim, seed, rounds=30):
    """The allocations of ``rounds`` resource rounds from a random start, the start first."""
    rng = np.random.default_rng(seed)
    allocs = [AllocationState.uniform(pop.n_users, delta=rng.uniform(0.0, 1.0, pop.n_users),
                                      gamma=rng.uniform(0.0, 1.0, pop.n_users))]
    for _ in range(rounds):
        allocs.append(resource_round(pop, allocs[-1], dim, cfg))
    return allocs


def desk_game(seed):
    spec = desk_spec(seed=seed, user_count=50)
    pop, datasets = io.synthesize_users(spec)
    return pop, io.effective_config(spec), weight_dim(datasets[0].n_features,
                                                      datasets[0].n_classes)


@pytest.mark.parametrize("seed", [0, 7])
def test_no_user_is_locked_at_zero_offload_after_forty_rounds(seed):
    # One sweep answering the random round-0 fractions leaves 21 (seed 0) and
    # 13 (seed 7) of these users at delta = 0, where their zero offload share
    # then holds them; the equilibrium leaves none there.
    pop, cfg, dim = desk_game(seed)
    final = resource_trace(pop, cfg, dim, cfg.rng_seed, rounds=40)[-1]   # run_proposed's draw
    assert not (final.delta == 0.0).any(), np.flatnonzero(final.delta == 0.0)


def assert_close_allocations(got, expected):
    assert len(got) == len(expected)
    for k, (a, b) in enumerate(zip(got, expected)):
        for name in FIELDS:
            np.testing.assert_allclose(getattr(a, name), getattr(b, name), rtol=1e-12, atol=0,
                                       err_msg=f"round {k} {name}")


@pytest.mark.parametrize("seed", METAMORPHIC_SEEDS)
def test_scaling_noise_and_every_gain_alike_leaves_the_allocations(seed):
    # the rates see the gains only through SNR = power * gain / noise
    pop, cfg, dim = desk_game(seed)
    scaled_pop = replace(pop, channel_gain=pop.channel_gain * 7.3)
    scaled_cfg = replace(cfg, noise_power=cfg.noise_power * 7.3)
    assert_close_allocations(resource_trace(scaled_pop, scaled_cfg, dim, seed),
                             resource_trace(pop, cfg, dim, seed))


@pytest.mark.parametrize("seed", METAMORPHIC_SEEDS)
def test_scaling_cycles_and_clocks_by_k_and_capacitance_by_k_cubed_leaves_costs(seed):
    # a time is cycles over a clock rate, an energy capacitance x cycles x clock^2
    pop, cfg, dim = desk_game(seed)
    fast_pop = replace(pop, cpu_hz=pop.cpu_hz * 3.0)
    fast_cfg = replace(cfg, cycles_per_byte=cfg.cycles_per_byte * 3.0,
                       edge_cpu_hz=cfg.edge_cpu_hz * 3.0,
                       chip_capacitance=cfg.chip_capacitance / 27.0)
    fast, base = resource_trace(fast_pop, fast_cfg, dim, seed), resource_trace(pop, cfg, dim, seed)
    assert_close_allocations(fast, base)
    for k, (a, b) in enumerate(zip(fast, base)):
        pairs = [(costs.local_time(fast_pop, a, dim, fast_cfg), costs.local_time(pop, b, dim, cfg)),
                 (costs.edge_time_total(fast_pop, a, fast_cfg), costs.edge_time_total(pop, b, cfg)),
                 (costs.total_energy(fast_pop, a, dim, fast_cfg),
                  costs.total_energy(pop, b, dim, cfg))]
        for got, want in pairs:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0, err_msg=f"round {k}")


@pytest.mark.parametrize("seed", METAMORPHIC_SEEDS)
def test_permuting_the_users_permutes_the_closed_forms_and_costs(seed):
    pop, cfg, dim = desk_game(seed)
    perm = np.random.default_rng(seed).permutation(pop.n_users)
    moved_pop = replace(pop, **{name: getattr(pop, name)[perm] for name in pop._FIELDS})
    for k, alloc in enumerate(resource_trace(pop, cfg, dim, seed)):
        moved = AllocationState(**{name: getattr(alloc, name)[perm] for name in FIELDS})
        pairs = [(solve_gamma(moved_pop, moved, dim, cfg)[0], solve_gamma(pop, alloc, dim, cfg)[0]),
                 (solve_delta(moved_pop, moved, dim, cfg), solve_delta(pop, alloc, dim, cfg)),
                 *zip(solve_uplink(moved_pop, moved, dim, cfg), solve_uplink(pop, alloc, dim, cfg)),
                 (costs.total_energy(moved_pop, moved, dim, cfg),
                  costs.total_energy(pop, alloc, dim, cfg))]
        for got, want in pairs:
            np.testing.assert_allclose(got, want[perm], rtol=1e-12, atol=0, err_msg=f"round {k}")


def test_permuting_the_instances_of_a_stack_permutes_the_rounds():
    pops, allocs, dims, cfg = stacked_game()
    perm = np.random.default_rng(2).permutation(len(pops))
    pop, alloc = stack(pops), stack(allocs)
    moved_pop, moved = stack(pops[i] for i in perm), stack(allocs[i] for i in perm)
    for k in range(6):
        alloc = resource_round(pop, alloc, dims, cfg)
        moved = resource_round(moved_pop, moved, dims[perm], cfg)
        for name in FIELDS:
            assert np.array_equal(getattr(moved, name), getattr(alloc, name)[perm]), (k, name)


@pytest.mark.parametrize("seed", [0, 7])
def test_a_stack_of_one_plays_the_one_dimensional_round(seed):
    pop, cfg, dim = desk_game(seed)
    trace = resource_trace(pop, cfg, dim, seed, rounds=6)
    alloc = stack(trace[:1])
    for expected in trace[1:]:
        alloc = resource_round(stack([pop]), alloc, dim, cfg)
        assert_stack_of(alloc, [expected])
