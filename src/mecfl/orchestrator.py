"""Round loop joining model training and resource management.

One run works as follows. Round 0 uses the initial allocation (random
offload/CPU fractions, uniform bandwidth, multipliers at 0.5): every user
splits its dataset, trains locally on the kept part while the edge trains
on the pooled offloaded parts, and the size-weighted aggregate forms the
global model. From round 1 on, each round first runs the best-response
sweep, at the previous round's bandwidth shares: every user's CPU fraction
in one call, then the offload fractions one user at a time in user-id
order, so later users see earlier users' fresh offload decisions (a
Gauss-Seidel sweep; the CPU fractions need no order, because each reads
only the user's own offload fraction). After splitting, training, and
uploading, the edge updates the multipliers from the energies just spent,
recomputes both bandwidth share vectors, trains on the offloaded pool, and
aggregates. The loop stops once both the test loss and the round time move
less than the configured tolerance between consecutive rounds.

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
    weight_dim,
)
from .optimizer import (
    solve_delta,
    solve_gamma,
    solve_uplink,
    simplex_shares,
    update_multipliers,
    upload_share_weights,
)
from .types import AllocationState, ModelState, Population, RoundMetrics, SystemConfig

_SEED_CAP = 2**31


@dataclass(frozen=True)
class ExperimentResult:
    """Everything one run produced, enough to replay or plot it."""

    trace: tuple[RoundMetrics, ...]
    alloc_trace: tuple[AllocationState, ...]
    final_alloc: AllocationState
    final_model: ModelState
    converged: bool
    iterations_used: int


def _check_population(users, datasets) -> Population:
    if not users or len(users) != len(datasets):
        raise ValidationError("need one dataset per user")
    pop = Population.from_users(users)
    for user, data in zip(users, datasets):
        if user.dataset_size != data.sample_count:
            raise ValidationError(
                f"user {user.id}: profile says {user.dataset_size} samples, "
                f"dataset holds {data.sample_count}"
            )
    n_features = datasets[0].n_features
    n_classes = datasets[0].n_classes
    if any(d.n_features != n_features or d.n_classes != n_classes for d in datasets):
        raise ValidationError("all user datasets must share feature and class counts")
    return pop


def _best_response_sweep(users, pop, alloc, model, cfg, force_delta):
    """Every CPU fraction at once, then the offload fractions in user-id order.

    User i answers the fresh offload fractions of users j < i and the
    previous ones of users j > i; the edge load it sees is a running prefix
    of fresh offloaded bytes plus a suffix sum of the previous ones.
    """
    gamma, _ = solve_gamma(pop, alloc, model, cfg)
    alloc = replace(alloc, gamma=gamma)
    if force_delta is not None:
        return alloc
    data = costs.dataset_bytes(pop, cfg)
    suffix = np.cumsum((alloc.delta * data)[::-1])[::-1]   # previous bytes of users j >= i
    later = np.append(suffix[1:], 0.0)                     # ... of users j > i
    delta = alloc.delta.copy()
    earlier = 0.0                                          # fresh bytes of users j < i
    for user in users:
        i = user.id
        if alloc.uplink_offload[i] <= 0.0:
            # No offload bandwidth assigned, so nothing can be shipped out.
            delta[i] = 0.0
        elif gamma[i] <= 0.0:
            # No compute budget left (or already fully offloading): keeping
            # any data local would take forever, and the time-balance
            # response tends to full offloading in that limit.
            delta[i] = 1.0
        else:
            delta[i] = solve_delta(user, alloc, model, cfg, earlier + later[i])
        earlier += delta[i] * data[i]
    return replace(alloc, delta=delta)


def _round_metrics(pop, alloc, model, cfg, train_pool, test_dataset):
    t_local = costs.local_time(pop, alloc, model, cfg)
    t_edge = costs.edge_time_total(pop, alloc, cfg)
    t_total = max(float(t_local.max()), t_edge)
    e_total = costs.total_energy(pop, alloc, model, cfg)
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


def run_proposed(users, datasets, cfg: SystemConfig, max_iterations: int = 100, *,
                 test_dataset: Dataset, force_delta: float | None = None,
                 adapt: bool = True, initial_delta: float | None = None,
                 initial_gamma: float | None = None,
                 stop_on_convergence: bool = True) -> ExperimentResult:
    """Run the joint training / resource-management loop.

    ``force_delta`` pins every user's offload fraction for the whole run
    (the traditional and centralized baselines); ``adapt=False`` freezes
    the entire allocation, which is what the sweep scenarios use. The run
    is fully reproducible from (users, datasets, cfg).
    """
    if max_iterations < 1:
        raise ValidationError("max_iterations must be >= 1")
    pop = _check_population(users, datasets)
    n_features, n_classes = datasets[0].n_features, datasets[0].n_classes
    dim = weight_dim(n_features, n_classes)
    if test_dataset.n_features != n_features or test_dataset.n_classes != n_classes:
        raise ValidationError("test dataset shape does not match the training data")
    train_pool = concat_datasets(datasets, n_classes, n_features)

    rng = np.random.default_rng(cfg.rng_seed)
    delta = force_delta if force_delta is not None else initial_delta
    if delta is None:
        delta = rng.uniform(0.0, 1.0, len(users))
    gamma = initial_gamma if initial_gamma is not None else rng.uniform(0.0, 1.0, len(users))
    alloc = AllocationState.uniform(len(users), delta=delta, gamma=gamma)
    model = ModelState.initial(len(users), dim, [u.dataset_size for u in users])

    trace: list[RoundMetrics] = []
    allocs: list[AllocationState] = []
    converged = False
    for iteration in range(max_iterations):
        try:
            alloc, model = _run_one_round(
                iteration, users, pop, datasets, alloc, model, cfg, rng, adapt, force_delta
            )
            metrics = _round_metrics(pop, alloc, model, cfg, train_pool, test_dataset)
        except SimulationError as exc:
            raise SimulationError(f"iteration {iteration}: {exc}") from exc
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
        final_alloc=alloc,
        final_model=model,
        converged=converged,
        iterations_used=len(trace),
    )


def _run_one_round(iteration, users, pop, datasets, alloc, model, cfg, rng, adapt,
                   force_delta):
    n_users = len(users)
    update_resources = adapt and iteration > 0
    if update_resources:
        alloc = _best_response_sweep(users, pop, alloc, model, cfg, force_delta)

    split_seeds = rng.integers(_SEED_CAP, size=n_users)
    train_seeds = rng.integers(_SEED_CAP, size=n_users)
    edge_seed = int(rng.integers(_SEED_CAP))

    # Local phase: split, train on the kept part, warm-started from the
    # current global model. Users offloading everything skip training.
    local_weights = np.empty((n_users, model.dim))
    local_sizes = np.empty(n_users, dtype=np.int64)
    offload_parts = []
    for user, data in zip(users, datasets):
        kept, offloaded = split_dataset(data, float(alloc.delta[user.id]),
                                        int(split_seeds[user.id]))
        offload_parts.append(offloaded)
        local_sizes[user.id] = kept.sample_count
        if kept.sample_count:
            local_weights[user.id] = train(
                model.global_weights, kept, cfg.local_epochs,
                cfg.learning_rate, int(train_seeds[user.id]), cfg.batch_size,
            )
        else:
            local_weights[user.id] = model.global_weights

    if update_resources:
        # The edge reacts to the energy just spent (still at the previous
        # bandwidth shares) before it reallocates the uplink.
        spent = costs.total_energy(pop, alloc, model, cfg)
        lam_off, lam_up = update_multipliers(spent, pop.energy_budget,
                                             alloc.lambda_offload, cfg)
        alloc = replace(alloc, lambda_offload=lam_off, lambda_local=lam_up)
        if np.any(alloc.delta > 0.0):
            offload_shares, upload_shares = solve_uplink(pop, alloc, model, cfg)
        else:
            # Nobody offloads: the offload shares are moot, keep them.
            offload_shares = alloc.uplink_offload
            upload_shares = simplex_shares(upload_share_weights(pop, alloc, model, cfg))
        alloc = replace(alloc, uplink_offload=offload_shares, uplink_weight=upload_shares)

    # Edge phase: train on the pooled offloaded data, then aggregate.
    pooled = concat_datasets(offload_parts, datasets[0].n_classes, datasets[0].n_features)
    if pooled.sample_count:
        pooled = shuffle_dataset(pooled, edge_seed)
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
        edge_trainset_size=pooled.sample_count,
    )
    model = replace(model, global_weights=aggregate(model))
    return alloc, model


def run_traditional(users, datasets, cfg: SystemConfig, rounds: int = 100, *,
                    test_dataset: Dataset) -> ExperimentResult:
    """Baseline without dataset offloading: every sample stays local."""
    return run_proposed(users, datasets, cfg, rounds, test_dataset=test_dataset,
                        force_delta=0.0)


def run_centralized(users, datasets, cfg: SystemConfig, rounds: int = 100, *,
                    test_dataset: Dataset) -> ExperimentResult:
    """Opposite limit: everything is offloaded and trained at the edge."""
    return run_proposed(users, datasets, cfg, rounds, test_dataset=test_dataset,
                        force_delta=1.0)
