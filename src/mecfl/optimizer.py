"""Closed-form best responses for the per-round resource game.

Each function answers for every user of a :class:`Population` in one
call, with no loop over users or instances, and reads the model only as
its weight dimension ``dim``. Like the cost model, each answers a stack
(fields ``(..., n)``, a 1-d input broadcast; ``dim`` a scalar or
``(..., 1)``) as each instance alone.

* ``solve_gamma``    - CPU fraction that spends the whole energy budget,
* ``solve_delta``    - offload fractions at which every user's local and edge
                       completion times balance, the subgame's equilibrium,
* ``solve_uplink``   - bandwidth shares proportional to the square root of
                       the multiplier-weighted transmission load,
* ``update_multipliers`` - penalty step that shifts bandwidth weight toward
                       offloading for users violating their energy budget.
"""

from __future__ import annotations

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
    """Offload fractions at the equilibrium of the offload subgame.

    User i's local and edge completion times balance where a_i * delta_i + E
    = own_i: a_i is its offload transmit plus local training time per unit
    of delta, own_i its local time at delta = 0, E the edge's compute load.
    A free user answers clip((own_i - E) / a_i, 0, 1); the load these answers
    and the users forced to 1 make is unique, so neither the users' order nor
    ``alloc.delta`` moves the result. A user without offload share gets 0,
    else one without CPU budget (gamma = 0) gets 1, the limit of its balance.
    A free user whose balance point is not finite raises ValidationError.
    """
    gamma, offload_share, upload_share = alloc.gamma, alloc.uplink_offload, alloc.uplink_weight
    forced_one = (offload_share > 0.0) & (gamma <= 0.0)
    free = (offload_share > 0.0) & (gamma > 0.0)
    check_degenerate(free & (upload_share <= 0.0),
                     "solve_delta needs positive gamma and both uplink shares")
    rate, data = base_rate(pop, cfg), dataset_bytes(pop, cfg)
    # a forced user's time may divide by zero, a free one's overflow: neither loads the edge
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        edge_per_unit = data * cfg.cycles_per_byte / cfg.edge_cpu_hz
        local_per_unit = training_time(data, cfg.cycles_per_byte, gamma, pop.cpu_hz)
        own = local_per_unit + transmit_time(weights_bytes(dim, cfg), upload_share, rate)
        per_unit = transmit_time(data, offload_share, rate) + local_per_unit
        playing = free & np.isfinite(own) & np.isfinite(per_unit)
        load = _edge_load(np.where(forced_one, edge_per_unit, 0.0).sum(axis=-1, keepdims=True),
                          np.where(playing, edge_per_unit, 0.0), np.where(playing, own, 0.0),
                          np.where(playing, per_unit, 1.0))
        balance = (own - load) / per_unit
    if (bad := free & ~np.isfinite(balance)).any():
        k = int(bad.argmax())
        raise ValidationError(f"user {k % bad.shape[-1]}: solve_delta balance point is not "
                              f"finite, got {float(balance.flat[k])!r}")
    return np.where(free, np.clip(balance, 0.0, 1.0), forced_one.astype(float))


def _edge_load(forced, v, own, a):
    """The root E, as ``(..., 1)``, of E = forced + sum_i v_i * clip((own_i - E) / a_i, 0, 1).

    The sum is linear between breakpoints own_i - a_i (user i leaves 1) and
    own_i (it reaches 0). Running sums of its intercept and slope over the
    sorted breakpoints count those below E; the users then at 1 and in
    between give E exactly, free of the running sums' cancellation."""
    slope = v / a
    points = np.concatenate([own - a, own], axis=-1)
    order = np.argsort(points, axis=-1, kind="stable")   # a tie leaves 1 before it reaches 0
    changes = np.concatenate([[slope * own - v, slope], [-slope * own, -slope]], axis=-1)
    intercept, steepness = np.take_along_axis(changes, order[None], -1).cumsum(-1)
    points = np.take_along_axis(points, order, -1)
    level = forced + v.sum(-1, keepdims=True) + intercept - steepness * points
    below = (level > points).sum(-1, keepdims=True)   # breakpoints below the root
    left_one, at_zero = np.split(np.argsort(order, axis=-1) < below, 2, axis=-1)
    inside = np.where(left_one & ~at_zero, slope, 0.0)   # of the users between 1 and 0
    return ((forced + (np.where(left_one, 0.0, v) + inside * own).sum(-1, keepdims=True))
            / (1.0 + inside.sum(-1, keepdims=True)))


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
