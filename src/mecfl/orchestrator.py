"""Round loop joining model training and resource management.

A round is the resource game, then a training step. ``resource_round``
maps one allocation to the next and needs no training: the model enters
it only through its weight dimension. It runs the best responses at the
previous round's bandwidth shares (every user's CPU fraction, then the
offload subgame's equilibrium), then the edge updates the multipliers
from the energies these fractions spend and recomputes both bandwidth
share vectors. The training step reads only the offload fractions: every
user splits its dataset, all users train in lockstep on their kept rows
of the pooled data while the edge trains on the pooled offloaded rows,
and the size-weighted aggregate forms the global model. Round 0 trains
at the initial allocation (random offload/CPU fractions, uniform
bandwidth, multipliers at 0.5), whose offload fractions reach round 1
only through the CPU fractions. A frozen run trains every round at the
allocation it is given.

Note the deliberate one-round lag: a round's dataset offload is priced at
the previous round's offload shares, because the edge only reallocates
bandwidth after receiving the data. Reported per-round metrics are always
evaluated on the state the round ends with.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from . import costs
from .errors import SimulationError, ValidationError
from .learning import (
    Dataset,
    aggregate,
    concat_datasets,
    evaluate_loss,
    shuffle_dataset,
    split_dataset,
    train,
    train_users,
    weight_dim,
)
from .optimizer import solve_delta, solve_gamma, solve_uplink, update_multipliers
from .types import AllocationState, ModelState, Population, RoundMetrics, SystemConfig, _fits

_SEED_CAP = 2**31


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one run produced, enough to replay or plot it."""

    trace: tuple[RoundMetrics, ...]
    alloc_trace: tuple[AllocationState, ...]
    final_model: ModelState
    converged: bool
    iterations_used: int


def _check_population(pop: Population, datasets, cfg: SystemConfig) -> None:
    if pop.dataset_size.ndim != 1:
        raise ValidationError(f"a run takes 1-d population fields, not {pop.dataset_size.shape}")
    if len(datasets) != pop.n_users:
        raise ValidationError("need one dataset per user")
    held = np.array([d.sample_count for d in datasets])
    wrong = held != pop.dataset_size
    if wrong.any():
        i = int(wrong.argmax())
        raise ValidationError(f"user {i}: population says {pop.dataset_size[i]} samples, "
                              f"dataset holds {held[i]}")
    if len({(d.n_features, d.n_classes) for d in datasets}) > 1:
        raise ValidationError("all user datasets must share feature and class counts")
    # 1 + SNR rounds to 1 below an SNR of about 1.1e-16: no bit would ever arrive
    silent = ~(costs.base_rate(pop, cfg) > 0)
    if silent.any():
        i = int(silent.argmax())
        snr = pop.transmit_power[i] * pop.channel_gain[i] / cfg.noise_power
        raise ValidationError(f"user {i}: uplink rate is 0 at SNR {snr:.3g}")


def _round_metrics(pop, alloc, model, dim, cfg, train_pool, test_dataset):
    t_local = costs.local_time(pop, alloc, dim, cfg)
    t_edge = costs.edge_time_total(pop, alloc, cfg)
    t_total = max(float(t_local.max()), t_edge)
    e_total = costs.total_energy(pop, alloc, dim, cfg)
    train_loss = evaluate_loss(model.global_weights, train_pool)
    test_loss = evaluate_loss(model.global_weights, test_dataset)
    return RoundMetrics(
        t_local=t_local,
        t_edge=t_edge,
        t_total=t_total,
        e_total=e_total,
        train_loss=train_loss,
        test_loss=test_loss,
        weighted_score=cfg.loss_weight * test_loss + cfg.time_weight * t_total,
    )


def run_proposed(pop: Population, datasets, cfg: SystemConfig, max_iterations: int = 100, *,
                 test_dataset: Dataset, force_delta: float | None = None,
                 frozen: AllocationState | None = None,
                 stop_on_convergence: bool = True) -> ExperimentResult:
    """Run the joint training / resource-management loop.

    ``force_delta`` pins every user's offload fraction for the whole run
    while the rest of the allocation adapts (the traditional and centralized
    baselines). ``frozen`` is the one allocation every round trains at, with
    no resource game played and nothing drawn for it (the sweep scenarios).
    The run is fully reproducible from (pop, datasets, cfg).

    With ``stop_on_convergence`` the run stops once the test loss (MSE) and
    ``t_total`` (seconds) both move by at most ``cfg.convergence_tol`` in a
    round: one absolute tolerance for two units. On the default desk spec
    ``t_total`` settles within 2e-4 s after one round, so the loss decides.
    """
    if not (_fits(max_iterations, "int") and max_iterations >= 1):
        raise ValidationError(f"max_iterations must be an integer >= 1, got {max_iterations!r}")
    _check_population(pop, datasets, cfg)
    if frozen is not None and force_delta is not None:
        raise ValidationError("frozen sets every offload fraction: pass no force_delta")
    if frozen is not None and frozen.delta.shape != (pop.n_users,):
        raise ValidationError(f"frozen must be one allocation of {pop.n_users} users, "
                              f"got fields of shape {frozen.delta.shape}")
    n_features, n_classes = datasets[0].n_features, datasets[0].n_classes
    dim = weight_dim(n_features, n_classes)
    if test_dataset.n_features != n_features or test_dataset.n_classes != n_classes:
        raise ValidationError("test dataset shape does not match the training data")
    train_pool = concat_datasets(datasets, n_classes, n_features)

    rng = np.random.default_rng(cfg.rng_seed)
    alloc = frozen
    if frozen is None:
        delta = force_delta if force_delta is not None else rng.uniform(0.0, 1.0, pop.n_users)
        gamma = rng.uniform(0.0, 1.0, pop.n_users)
        alloc = AllocationState.uniform(pop.n_users, delta=delta, gamma=gamma)
    model = ModelState.initial(pop.n_users, dim, pop.dataset_size)

    trace: list[RoundMetrics] = []
    allocs: list[AllocationState] = []
    converged = False
    for iteration in range(max_iterations):
        try:
            if frozen is None and iteration > 0:
                alloc = resource_round(pop, alloc, dim, cfg, delta_pinned=force_delta is not None)
            model = _train_round(pop, train_pool, alloc.delta, model, cfg, rng)
            metrics = _round_metrics(pop, alloc, model, dim, cfg, train_pool, test_dataset)
        except SimulationError as exc:
            raise type(exc)(f"iteration {iteration}: {exc}") from exc
        trace.append(metrics)
        allocs.append(alloc)
        if stop_on_convergence and iteration >= 1:
            prev = trace[-2]
            if (abs(metrics.test_loss - prev.test_loss) <= cfg.convergence_tol
                    and abs(metrics.t_total - prev.t_total) <= cfg.convergence_tol):
                converged = True
                break
    return ExperimentResult(
        trace=tuple(trace),
        alloc_trace=tuple(allocs),
        final_model=model,
        converged=converged,
        iterations_used=len(trace),
    )


def resource_round(pop: Population, alloc: AllocationState, dim: int, cfg: SystemConfig,
                   delta_pinned: bool = False) -> AllocationState:
    """The allocation one round of the resource game leads to from ``alloc``.

    CPU fractions, the offload equilibrium (unless ``delta_pinned``), the multiplier
    step on the energy spent at the previous bandwidth shares, then both share
    vectors. A stack of games (fields ``(..., n)``) plays as each game alone.
    """
    gamma, _ = solve_gamma(pop, alloc, dim, cfg)
    alloc = replace(alloc, gamma=gamma)
    if not delta_pinned:
        alloc = replace(alloc, delta=solve_delta(pop, alloc, dim, cfg))
    spent = costs.total_energy(pop, alloc, dim, cfg)
    lam_off, lam_up = update_multipliers(spent, pop.energy_budget, alloc.lambda_offload, cfg)
    alloc = replace(alloc, lambda_offload=lam_off, lambda_local=lam_up)
    offload_shares, upload_shares = solve_uplink(pop, alloc, dim, cfg)
    return replace(alloc, uplink_offload=offload_shares, uplink_weight=upload_shares)


def _train_round(pop, train_pool, delta, model, cfg, rng):
    """One round of training at offload fractions ``delta``: the next model."""
    split_seed, train_seed, edge_seed = rng.integers(_SEED_CAP, size=3).tolist()

    # Local phase: split, then every user trains on its kept rows of the
    # pool at once, warm-started from the current global model. Users
    # offloading everything keep the global weights.
    kept_rows, offloaded_rows = split_dataset(pop.dataset_size, delta, split_seed)
    local_sizes = np.array([rows.size for rows in kept_rows], dtype=np.int64)
    local_weights = train_users(model.global_weights, train_pool, kept_rows, cfg.local_epochs,
                                cfg.learning_rate, train_seed, cfg.batch_size)

    # Edge phase: train on the pooled offloaded rows, then aggregate. The
    # shuffle and train share edge_seed, and train's epoch-0 order is the
    # shuffle's permutation perm, so epoch 0 visits pooled_rows[perm][perm].
    # Kept as is: drawing otherwise moves every run's losses and the golden trace.
    pooled_rows = np.concatenate(offloaded_rows)
    if pooled_rows.size:
        pooled = shuffle_dataset(train_pool.take(pooled_rows), edge_seed)
        edge_weights = train(model.global_weights, pooled, cfg.local_epochs,
                             cfg.learning_rate, edge_seed, cfg.batch_size)
    else:
        edge_weights = model.edge_weights
    model = ModelState(
        local_weights=local_weights,
        edge_weights=edge_weights,
        global_weights=model.global_weights,
        dataset_sizes=model.dataset_sizes,
        local_trainset_sizes=local_sizes,
        edge_trainset_size=pooled_rows.size,
    )
    return replace(model, global_weights=aggregate(model))


def run_traditional(pop: Population, datasets, cfg: SystemConfig, rounds: int = 100, *,
                    test_dataset: Dataset) -> ExperimentResult:
    """Baseline without dataset offloading: every sample stays local."""
    return run_proposed(pop, datasets, cfg, rounds, test_dataset=test_dataset,
                        force_delta=0.0)


def run_centralized(pop: Population, datasets, cfg: SystemConfig, rounds: int = 100, *,
                    test_dataset: Dataset) -> ExperimentResult:
    """Opposite limit: everything is offloaded and trained at the edge."""
    return run_proposed(pop, datasets, cfg, rounds, test_dataset=test_dataset,
                        force_delta=1.0)
