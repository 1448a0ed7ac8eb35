"""Brute-force numeric verification tools.

These deliberately know nothing about the closed-form solutions they are
used to certify: grid search, bisection, central finite differences, and
an exhaustive simplex search for tiny bandwidth-allocation instances. They
evaluate the shared cost functions (re-deriving the formulas twice would
only double the typo risk); the independence lies in the optimization
step itself.

Candidates are scored as one batch, not one at a time: the simplex search
puts every composition of a simplex into one stacked
:class:`AllocationState` and makes one cost-model call per simplex, and
``finite_diff`` evaluates its whole stencil in one call of ``f``.
"""

from __future__ import annotations

import math
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
from .types import AllocationState, ModelState, Population, SystemConfig, _require_positive


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
    _require_positive("bisect_root", tol=tol)
    g_lo, g_hi = g(lo), g(hi)
    if g_lo * g_hi > 0:
        raise NoSignChange(f"bisect_root: g({lo})={g_lo:g} and g({hi})={g_hi:g} share a sign")
    if g_lo == 0.0:
        return float(lo)
    if g_hi == 0.0:
        return float(hi)
    return float(_scipy_bisect(g, lo, hi, xtol=tol))


def finite_diff(f, x: float, order: int, h: float) -> float:
    """Central finite difference of first or second order.

    ``f`` is called once, on the vector of stencil points (``[x+h, x-h]``,
    or ``[x+h, x, x-h]`` for the second order), and must return one value
    per point.
    """
    if order not in (1, 2):
        raise ValidationError(f"finite_diff: order must be 1 or 2, got {order}")
    _require_positive("finite_diff", h=h)
    if order == 1:
        up, down = f(np.array([x + h, x - h]))
        return float((up - down) / (2.0 * h))
    up, mid, down = f(np.array([x + h, x, x - h]))
    return float((up - 2.0 * mid + down) / (h * h))


def _compositions(total: int, parts: int):
    """All nonnegative integer vectors of the given length summing to total."""
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for rest in _compositions(total - head, parts - 1):
            yield (head,) + rest


def _fastest(candidates: np.ndarray, refused: np.ndarray, per_user_time) -> int | None:
    """Index of the candidate whose slowest user finishes first, or None.

    ``per_user_time`` maps a stack of candidates to per-user times in one
    cost-model call. ``refused`` flags, per candidate and user, what the
    cost model refuses with :class:`DegenerateDivisor` (it refuses a whole
    stack for one such candidate): those candidates stay out of the call
    and score +inf. If the call still raises, no candidate avoids the
    degeneracy and every one scores +inf. NaN scores +inf too; ties take
    the first candidate.
    """
    scores = np.full(len(candidates), np.inf)
    kept = ~refused.any(axis=-1)
    try:
        worst = per_user_time(candidates[kept]).max(axis=-1)
    except DegenerateDivisor:
        return None
    scores[kept] = np.where(np.isnan(worst), np.inf, worst)
    best = int(np.argmin(scores))
    return best if np.isfinite(scores[best]) else None


def simplex_minimize_maxtime(pop: Population, alloc: AllocationState, model: ModelState,
                             cfg: SystemConfig, resolution: float):
    """Exhaustive search certifying tiny bandwidth allocations (<= 3 users).

    Minimizes the slowest per-user completion time,
    max_i max(t_local_i, t_edge_i), over both discretized share simplices.
    The edge times depend only on the offload shares and the local times
    only on the upload shares, so each simplex face (shares summing to 1;
    times only improve with more bandwidth) is searched on its own grid.
    Offload fractions, CPU fractions, and multipliers are taken from
    ``alloc`` and held fixed. Each face is scored as one stacked candidate
    allocation, so memory grows with its composition count,
    (steps+1)(steps+2)/2 at 3 users for steps = round(1 / resolution).
    """
    n = pop.n_users
    if n > 3:
        raise InstanceTooLarge(f"simplex_minimize_maxtime: {n} users (max 3)")
    if not (math.isfinite(resolution) and 0 < resolution <= 1):
        raise ValidationError("simplex_minimize_maxtime: resolution must be finite, > 0 "
                              f"and <= 1, got {resolution!r}")
    steps = int(round(1.0 / resolution))
    shares = np.array(list(_compositions(steps, n)), dtype=float) / steps
    starved = shares <= 0.0
    best_offload = _fastest(
        shares, starved & (alloc.delta > 0.0),
        lambda s: costs.edge_time_user(pop, replace(alloc, uplink_offload=s), cfg))
    best_upload = _fastest(
        shares, starved,
        lambda s: costs.local_time(pop, replace(alloc, uplink_weight=s), model, cfg))
    if best_offload is None or best_upload is None:
        raise NoFeasiblePoint("simplex_minimize_maxtime: every grid point was degenerate")
    offload, upload = shares[[best_offload, best_upload]]
    return offload, upload
