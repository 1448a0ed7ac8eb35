"""Brute-force numeric verification tools.

These deliberately know nothing about the closed-form solutions they are
used to certify: grid search, bisection, central finite differences, and
an exhaustive simplex search for tiny bandwidth-allocation instances. They
evaluate the shared cost functions (re-deriving the formulas twice would
only double the typo risk); the independence lies in the optimization
step itself.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np
from scipy.optimize import bisect as _scipy_bisect

from . import costs
from .errors import (
    DegenerateDivisor,
    InstanceTooLarge,
    NoFeasiblePoint,
    NoSignChange,
    ValidationError,
)
from .types import AllocationState, ModelState, Population, SystemConfig


def grid_minimize(f, lo: float, hi: float, points: int, constraint=None):
    """Feasible grid point minimizing ``f`` on [lo, hi].

    ``f`` (and ``constraint``, a boolean predicate) should broadcast over a
    numpy vector; scalar-only callables are evaluated pointwise as a
    fallback. Ties take the smallest x. Resolution is (hi-lo)/(points-1).
    """
    if points < 2:
        raise ValidationError(f"grid_minimize: points must be >= 2, got {points}")
    if not lo < hi:
        raise ValidationError(f"grid_minimize: need lo < hi, got [{lo}, {hi}]")
    xs = np.linspace(lo, hi, points)
    with np.errstate(divide="ignore", invalid="ignore"):
        try:
            ys = np.asarray(f(xs), dtype=float)
            if ys.shape != xs.shape:
                raise TypeError
        except (TypeError, ValueError):
            ys = np.array([float(f(x)) for x in xs])
        if constraint is None:
            feasible = np.ones(points, dtype=bool)
        else:
            try:
                feasible = np.asarray(constraint(xs), dtype=bool)
                if feasible.shape != xs.shape:
                    raise TypeError
            except (TypeError, ValueError):
                feasible = np.array([bool(constraint(x)) for x in xs])
    ys = np.where(feasible & ~np.isnan(ys), ys, np.inf)
    if not np.any(np.isfinite(ys)):
        raise NoFeasiblePoint("grid_minimize: no feasible grid point")
    best = int(np.argmin(ys))
    return float(xs[best]), float(ys[best])


def bisect_root(g, lo: float, hi: float, tol: float) -> float:
    """Root of ``g`` on [lo, hi], bracketed to interval width <= tol."""
    g_lo, g_hi = g(lo), g(hi)
    if g_lo * g_hi > 0:
        raise NoSignChange(f"bisect_root: g({lo})={g_lo:g} and g({hi})={g_hi:g} share a sign")
    if g_lo == 0.0:
        return float(lo)
    if g_hi == 0.0:
        return float(hi)
    return float(_scipy_bisect(g, lo, hi, xtol=tol))


def finite_diff(f, x: float, order: int, h: float) -> float:
    """Central finite difference of first or second order."""
    if order == 1:
        return (f(x + h) - f(x - h)) / (2.0 * h)
    if order == 2:
        return (f(x + h) - 2.0 * f(x) + f(x - h)) / (h * h)
    raise ValidationError(f"finite_diff: order must be 1 or 2, got {order}")


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _max_time(per_user_time, *args) -> float:
    try:
        return float(per_user_time(*args).max())
    except DegenerateDivisor:
        return np.inf


def simplex_minimize_maxtime(pop: Population, alloc: AllocationState, model: ModelState,
                             cfg: SystemConfig, resolution: float):
    """Exhaustive search certifying tiny bandwidth allocations (<= 3 users).

    Minimizes the slowest per-user completion time,
    max_i max(t_local_i, t_edge_i), over both discretized share simplices.
    The edge times depend only on the offload shares and the local times
    only on the upload shares, so each simplex face (shares summing to 1;
    times only improve with more bandwidth) is searched on its own grid.
    Offload fractions, CPU fractions, and multipliers are taken from
    ``alloc`` and held fixed.
    """
    n = pop.n_users
    if n > 3:
        raise InstanceTooLarge(f"simplex_minimize_maxtime: {n} users (max 3)")
    steps = int(round(1.0 / resolution))
    if steps < 1:
        raise ValidationError("simplex_minimize_maxtime: resolution must be <= 1")

    best_offload, best_offload_time = None, np.inf
    best_upload, best_upload_time = None, np.inf
    for combo in _compositions(steps, n):
        shares = np.array(combo, dtype=float) / steps
        worst = _max_time(costs.edge_time_user, pop, replace(alloc, uplink_offload=shares), cfg)
        if worst < best_offload_time:
            best_offload, best_offload_time = shares, worst
        worst = _max_time(costs.local_time, pop, replace(alloc, uplink_weight=shares), model, cfg)
        if worst < best_upload_time:
            best_upload, best_upload_time = shares, worst
    if best_offload is None or not np.isfinite(best_upload_time):
        raise NoFeasiblePoint("simplex_minimize_maxtime: every grid point was degenerate")
    return best_offload, best_upload
