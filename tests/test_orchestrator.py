import numpy as np
import pytest
from dataclasses import replace

from mecfl import costs, io
from mecfl.costs import base_rate
from mecfl.errors import SimulationError, ValidationError
from mecfl.learning import Dataset, concat_datasets, split_dataset, train, weight_dim
from mecfl.optimizer import solve_delta, solve_gamma
from mecfl.orchestrator import (
    _SEED_CAP,
    _train_round,
    resource_round,
    run_centralized,
    run_proposed,
    run_traditional,
)
from mecfl.types import AllocationState, ModelState, SystemConfig, validate_allocation

from helpers import desk_spec, make_alloc, make_pop


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


def test_infinite_tolerance_converges_at_two():
    pop, datasets, test, cfg = tiny_population()
    cfg = replace(cfg, convergence_tol=float("inf"))
    result = run_proposed(pop, datasets, cfg, 50, test_dataset=test)
    assert result.converged
    assert result.iterations_used == 2


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
    assert np.array_equal(a.final_alloc.delta, b.final_alloc.delta)


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
    last, alloc = result.trace[-1], result.final_alloc
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
    with pytest.raises(SimulationError, match="iteration 1"):
        run_proposed(starved, datasets, cfg, 5, test_dataset=test, force_delta=0.0)


def test_starved_budget_degrades_to_full_offloading():
    pop, datasets, test, cfg = tiny_population(seed=9)
    starved = replace(pop, energy_budget=np.full(pop.n_users, 1e-15))
    result = run_proposed(starved, datasets, cfg, 5, test_dataset=test)
    assert np.all(result.final_alloc.delta == 1.0)
    assert np.all(result.final_alloc.gamma == 0.0)


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


def test_run_rejects_a_dataset_count_that_differs_from_the_user_count():
    pop, datasets, test, cfg = tiny_population()
    with pytest.raises(ValidationError, match="need one dataset per user"):
        run_proposed(pop, datasets + datasets[:1], cfg, 2, test_dataset=test)


def test_run_names_the_user_whose_dataset_size_differs():
    pop, datasets, test, cfg = tiny_population()
    datasets[2] = datasets[2].take(np.arange(datasets[2].sample_count - 1))
    with pytest.raises(ValidationError, match="user 2: population says 60 samples, "
                                              "dataset holds 59"):
        run_proposed(pop, datasets, cfg, 2, test_dataset=test)


@pytest.mark.parametrize("n_features, n_classes", [(3, 4), (16, 5)])
def test_run_rejects_datasets_of_different_shapes(n_features, n_classes):
    pop, datasets, test, cfg = tiny_population()
    datasets[1] = io.synthesize_dataset(datasets[1].sample_count, n_features, n_classes, seed=1)
    with pytest.raises(ValidationError, match="must share feature and class counts"):
        run_proposed(pop, datasets, cfg, 2, test_dataset=test)


def sweep_instance():
    """Six users: four interior, user 2 without offload bandwidth, user 3 out of budget."""
    cfg = SystemConfig()
    gains = [1e-6, 3e-7, 2e-6, 5e-7, 1e-6, 8e-7]
    budgets = [50.0, 50.0, 50.0, 1e-9, 50.0, 50.0]
    pop = make_pop(gain=gains, budget=budgets, samples=[500 + 100 * i for i in range(6)])
    alloc = make_alloc(6, delta=[0.9, 0.8, 0.0, 0.5, 0.9, 0.7], gamma=0.5,
                       offload=[0.2, 0.2, 0.0, 0.2, 0.2, 0.2], upload=np.full(6, 1 / 6))
    return pop, alloc, 100, cfg


def best_responses(pop, alloc, dim, cfg):
    """Every CPU fraction, then the offload sweep, as one round begins."""
    gamma, _ = solve_gamma(pop, alloc, dim, cfg)
    alloc = replace(alloc, gamma=gamma)
    return replace(alloc, delta=solve_delta(pop, alloc, dim, cfg))


def test_sweep_is_sequential_in_user_id_order():
    pop, alloc, dim, cfg = sweep_instance()
    new = best_responses(pop, alloc, dim, cfg)
    assert new.delta[2] == 0.0
    assert new.gamma[3] == 0.0 and new.delta[3] == 1.0
    t_local = costs.local_time(pop, new, dim, cfg)
    for i in (0, 1, 4, 5):
        assert 0.0 < new.delta[i] < 1.0
        # user i answered the fresh offload fractions of lower ids and the
        # previous ones of higher ids
        seen = np.where(np.arange(6) <= i, new.delta, alloc.delta)
        t_edge = costs.edge_time_user(pop, replace(new, delta=seen), cfg)
        assert t_local[i] == pytest.approx(t_edge[i], rel=1e-9)


def round_inputs(n_users, delta, seed=11):
    """Arguments of one training step of ``n_users`` desk users at offload fractions ``delta``."""
    spec = desk_spec(seed=seed, user_count=n_users, samples_per_user=45)
    pop, datasets = io.synthesize_users(spec)
    cfg = io.effective_config(spec)
    n_features, n_classes = datasets[0].n_features, datasets[0].n_classes
    dim = weight_dim(n_features, n_classes)
    model = replace(ModelState.initial(n_users, dim, pop.dataset_size),
                    global_weights=np.random.default_rng(seed).normal(size=dim))
    alloc = AllocationState.uniform(n_users, delta=delta, gamma=0.5)
    train_pool = concat_datasets(datasets, n_classes, n_features)
    return pop, datasets, train_pool, alloc.delta, model, cfg, np.random.default_rng(seed)


def test_round_local_weights_equal_per_user_training():
    delta = [0.0, 1.0, 0.5, 0.3, 1.0, 0.77]
    args = round_inputs(6, delta)
    datasets, before, cfg = args[1], args[4], args[5]
    after = _train_round(*args)
    rng = np.random.default_rng(11)   # the round's seed draws, in its order
    split_seeds = rng.integers(_SEED_CAP, size=6)
    train_seeds = rng.integers(_SEED_CAP, size=6)
    for i, data in enumerate(datasets):
        kept, _ = split_dataset(data, delta[i], int(split_seeds[i]))
        assert after.local_trainset_sizes[i] == kept.size
        if kept.size:
            expected = train(before.global_weights, data.take(kept), cfg.local_epochs,
                             cfg.learning_rate, int(train_seeds[i]), cfg.batch_size)
        else:
            expected = before.global_weights    # offloads everything: keeps the global model
        assert np.array_equal(after.local_weights[i], expected)
    assert after.local_trainset_sizes[0] == datasets[0].sample_count
    assert np.array_equal(after.local_weights[[1, 4]], np.tile(before.global_weights, (2, 1)))
    assert after.edge_trainset_size == sum(d.sample_count for d in datasets) - sum(
        after.local_trainset_sizes)


@pytest.mark.parametrize("n_users", [3, 12])
def test_round_builds_at_most_two_datasets(monkeypatch, n_users):
    args = round_inputs(n_users, 0.4)
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


def test_sgd_settings_leave_the_allocation_trace_unchanged():
    spec = desk_spec(seed=7, user_count=20, samples_per_user=100)
    pop, datasets = io.synthesize_users(spec)
    test, cfg = io.load_test_dataset(spec), io.effective_config(spec)
    runs = [run_proposed(pop, datasets, settings, 8, test_dataset=test,
                         stop_on_convergence=False)
            for settings in (cfg, replace(cfg, learning_rate=0.01, local_epochs=2, batch_size=7))]
    assert runs[0].trace[-1].test_loss != runs[1].trace[-1].test_loss
    assert_same_allocations(runs[0].alloc_trace, runs[1].alloc_trace)
