"""Closed-form best responses for the per-round resource game.

Each function answers for every user of a :class:`Population` in one
call (``solve_delta`` as a Gauss-Seidel sweep, in which the users move in
turn) and reads the model only as its weight dimension ``dim``. Like the
cost model, each answers a stack (fields ``(..., n)``, a 1-d input
broadcast; ``dim`` a scalar or ``(..., 1)``) as each instance alone.

* ``solve_gamma``    - CPU fraction that spends the whole energy budget,
* ``solve_delta``    - offload fraction that balances the local and edge
                       completion times,
* ``solve_uplink``   - bandwidth shares proportional to the square root of
                       the multiplier-weighted transmission load,
* ``update_multipliers`` - penalty step that shifts bandwidth weight toward
                       offloading for users violating their energy budget.
"""

from __future__ import annotations

import math

import numpy as np

from .costs import (
    base_rate,
    check_degenerate,
    dataset_bytes,
    training_time,
    transmit_energy,
    transmit_time,
    weights_bytes,
)
from .errors import ValidationError
from .types import AllocationState, Population, SystemConfig

# Keeps both multipliers strictly positive; repeated penalty increments
# would otherwise drive the upload-side multiplier to zero or below.
LAMBDA_MIN = 1e-3


def solve_gamma(pop: Population, alloc: AllocationState, dim: int,
                cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """CPU fraction of every user whose training energy exactly exhausts the budget.

    Solves energy(gamma) = budget for gamma and projects onto [0, 1]:

        gamma = sqrt((budget - transmission_energy)
                     / (capacitance * kept_bytes * cycles_per_byte * cpu_hz^2))

    Returns ``(gamma, budget_exhausted)``. The flag is True where the
    transmission energy alone exceeds the budget, in which case no compute
    budget remains and gamma is 0. With delta = 1 there is nothing to train
    locally and gamma is defined as 0. Each user's answer reads only its own
    entries of ``alloc``.
    """
    delta = alloc.delta
    training = delta < 1.0
    offloading = training & (delta > 0.0)
    check_degenerate(offloading & (alloc.uplink_offload <= 0.0),
                     "delta>0 needs a positive offload share")
    check_degenerate(training & (alloc.uplink_weight <= 0.0),
                     "zero uplink share for the weight upload")
    rate = base_rate(pop, cfg)
    data = dataset_bytes(pop, cfg)
    power = pop.transmit_power
    curvature = (cfg.chip_capacitance * (1.0 - delta) * data
                 * cfg.cycles_per_byte * pop.cpu_hz ** 2)
    # entries of users that do not train may divide by zero; they are masked
    with np.errstate(divide="ignore", invalid="ignore"):
        offload = transmit_energy(power, delta * data, alloc.uplink_offload, rate)
        upload = transmit_energy(power, weights_bytes(dim, cfg), alloc.uplink_weight, rate)
        remaining = pop.energy_budget - (np.where(offloading, offload, 0.0) + upload)
        ratio = remaining / curvature
    exhausted = training & (remaining < 0.0)
    gamma = np.sqrt(np.where(training & ~exhausted, ratio, 0.0))
    if not np.all(np.isfinite(gamma)):
        raise ValidationError("solve_gamma: a CPU fraction is not finite")
    return np.minimum(gamma, 1.0), exhausted


def solve_delta(pop: Population, alloc: AllocationState, dim: int,
                cfg: SystemConfig) -> np.ndarray:
    """Offload fractions of one Gauss-Seidel sweep over the users in index order.

    Each user's fraction equates its local and edge completion times. Both
    are linear in delta with opposite slopes, so the balance point is
    unique; it is projected onto [0, 1], and one that is not finite raises
    :class:`ValidationError` naming the user. Other users' offload decisions
    enter through the shared edge compute load: user i answers the fresh
    fractions of users j < i and the previous ones (``alloc.delta``) of
    users j > i, so user 0 answers everyone else's previous fractions. A
    user without offload share gets 0; otherwise a user without CPU budget
    (gamma = 0) gets 1, the limit of the balance as its local time diverges.
    A stack is swept one instance after another, in Python floats.
    """
    gamma, offload_share, upload_share = alloc.gamma, alloc.uplink_offload, alloc.uplink_weight
    forced_zero = offload_share <= 0.0
    forced_one = ~forced_zero & (gamma <= 0.0)
    check_degenerate(~forced_zero & ~forced_one & (upload_share <= 0.0),
                     "solve_delta needs positive gamma and both uplink shares")
    rate, data = base_rate(pop, cfg), dataset_bytes(pop, cfg)
    edge_per_unit = data * cfg.cycles_per_byte / cfg.edge_cpu_hz
    # entries of forced users may divide by zero; the loop skips them. A share
    # or CPU fraction near 0 may overflow a time; the loop refuses a non-finite balance.
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        local_per_unit = training_time(data, cfg.cycles_per_byte, gamma, pop.cpu_hz)
        own = local_per_unit + transmit_time(weights_bytes(dim, cfg), upload_share, rate)
        per_unit = transmit_time(data, offload_share, rate) + edge_per_unit + local_per_unit
    # the sweep's inputs broadcast to the stack; the last row: previous bytes of users j > i
    table = np.zeros((6,) + own.shape)
    for row, value in zip(table, (forced_zero, forced_one, own, per_unit, data)):
        row[...] = value
    table[5, ..., :-1] = np.cumsum((alloc.delta * data)[..., :0:-1], axis=-1)[..., ::-1]
    swept = []
    for instance in table.reshape(6, -1, own.shape[-1]).transpose(1, 0, 2).tolist():
        delta, earlier = [], 0.0   # earlier: fresh bytes of users j < i
        for zero, one, own_i, per_unit_i, data_i, later_i in zip(*instance):
            if zero or one:   # forced to 0 or to 1
                d = one
            else:
                edge_load = (earlier + later_i) * cfg.cycles_per_byte / cfg.edge_cpu_hz
                d = (own_i - edge_load) / per_unit_i
                if not math.isfinite(d):
                    raise ValidationError(f"user {len(delta)}: solve_delta balance point is "
                                          f"not finite, got {d!r}")
                d = min(max(d, 0.0), 1.0)
            delta.append(d)
            earlier += d * data_i
        swept.append(delta)
    return np.array(swept).reshape(own.shape)


def simplex_shares(weights: np.ndarray) -> np.ndarray:
    """Normalize nonnegative weights to sum to 1 along the last axis, up to rounding."""
    weights = np.asarray(weights, dtype=float)
    if np.any(weights < 0) or not np.all(np.isfinite(weights)):
        raise ValidationError("simplex_shares: weights must be finite and >= 0")
    total = weights.sum(axis=-1, keepdims=True)
    if (total <= 0.0).any():
        raise ValidationError("simplex_shares: every proportionality weight is zero")
    return weights / total


def solve_uplink(pop: Population, alloc: AllocationState, dim: int,
                 cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Square-root proportional bandwidth shares for both uplink phases.

    A user's weight is sqrt(multiplier * bytes / rate) of its offloaded data
    or of its weights. Users with delta = 0 get a zero offload share; an
    instance in which no user offloads keeps its moot ``alloc.uplink_offload``.
    Each computed vector sums to 1 up to rounding.
    """
    if np.any(alloc.lambda_offload <= 0.0) or np.any(alloc.lambda_local <= 0.0):
        raise ValidationError("solve_uplink: multipliers must be > 0")
    rate = base_rate(pop, cfg)
    upload = simplex_shares(np.sqrt(alloc.lambda_local * weights_bytes(dim, cfg) / rate))
    offloading = (alloc.delta > 0.0).any(axis=-1, keepdims=True)
    offload = np.sqrt(alloc.lambda_offload * alloc.delta * dataset_bytes(pop, cfg) / rate)
    return (np.where(offloading, simplex_shares(np.where(offloading, offload, 1.0)),
                     alloc.uplink_offload), upload)


def update_multipliers(e_total: np.ndarray, energy_budget: np.ndarray,
                       lambda_offload_prev: np.ndarray,
                       cfg: SystemConfig) -> tuple[np.ndarray, np.ndarray]:
    """Penalty update of every user's multiplier pair.

    The offload multiplier grows by the configured increment while the
    energy budget is violated, shifting bandwidth toward the (more
    energy-hungry) dataset offload; the upload multiplier is its
    complement. Both are clamped to [LAMBDA_MIN, 1 - LAMBDA_MIN] so the
    square-root weighting stays well defined.
    """
    lam = np.where(e_total > energy_budget,
                   lambda_offload_prev + cfg.multiplier_increment, lambda_offload_prev)
    lam = np.clip(lam, LAMBDA_MIN, 1.0 - LAMBDA_MIN)
    return lam, 1.0 - lam
