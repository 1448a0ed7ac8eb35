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
``grid_minimize`` scores its grid block by block, each block a slice of
one ``linspace``, so a million-point grid builds no temporaries of its
own size. ``bisect_root`` is scipy's bisection written out, with the
same roots bit for bit, so importing the package does not load
``scipy.optimize``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import replace

import numpy as np

from . import costs
from .errors import (
    DegenerateDivisor,
    InstanceTooLarge,
    NoFeasiblePoint,
    NoSignChange,
    SimulationError,
    ValidationError,
)
from .types import AllocationState, Population, SystemConfig, _require_positive

_GRID_BLOCK = 16384                       # grid points scored per call of f
_BISECT_HALVINGS = 100                    # scipy's default maxiter
_BISECT_RTOL = 4 * sys.float_info.epsilon  # scipy's default rtol


def _on_grid(fn, xs: np.ndarray, dtype) -> np.ndarray:
    """``fn`` on the vector ``xs``, or point by point if it does not broadcast."""
    try:
        values = np.asarray(fn(xs), dtype=dtype)
        if values.shape == xs.shape:
            return values
    except (TypeError, ValueError):
        pass
    return np.array([dtype(fn(x)) for x in xs], dtype=dtype)


def grid_minimize(f, lo: float, hi: float, points: int, constraint=None):
    """Feasible grid point minimizing ``f`` on [lo, hi].

    ``f`` (and ``constraint``, a boolean predicate) should broadcast over a
    numpy vector; scalar-only callables are evaluated pointwise as a
    fallback. Both run on one block of the grid at a time. NaN and
    infeasible points score +inf; ties take the smallest x. Resolution is
    (hi-lo)/(points-1).
    """
    if not isinstance(points, numbers.Integral) or points < 2:
        raise ValidationError(f"grid_minimize: points must be an integer >= 2, got {points!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"grid_minimize: need finite lo < hi, got [{lo}, {hi}]")
    xs = np.linspace(lo, hi, points)
    best_x, best_y = None, np.inf
    with np.errstate(divide="ignore", invalid="ignore"):
        for start in range(0, points, _GRID_BLOCK):
            block = xs[start:start + _GRID_BLOCK]
            ys = _on_grid(f, block, float)
            feasible = ~np.isnan(ys)
            if constraint is not None:
                feasible &= _on_grid(constraint, block, bool)
            ys = np.where(feasible, ys, np.inf)
            i = int(np.argmin(ys))
            if ys[i] < best_y:
                best_x, best_y = block[i], ys[i]
    if best_x is None:
        raise NoFeasiblePoint("grid_minimize: no feasible grid point")
    return float(best_x), float(best_y)


def bisect_root(g, lo: float, hi: float, tol: float) -> float:
    """Root of ``g`` on [lo, hi], bracketed to interval width <= tol.

    The loop is scipy's ``bisect`` (``Zeros/bisect.c``: relative tolerance
    4 eps, at most 100 halvings), so the roots match it bit for bit. Signs
    are compared, not the product ``g(mid) * g(lo)``, which can underflow to
    zero. Each endpoint is evaluated once; a NaN value of ``g`` raises
    :class:`ValidationError`.
    """
    _require_positive("bisect_root", tol=tol)

    def value(x: float) -> float:
        y = float(g(x))
        if math.isnan(y):
            raise ValidationError(f"bisect_root: g({x!r}) is NaN")
        return y

    lo, hi = float(lo), float(hi)
    g_lo, g_hi = value(lo), value(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo < 0.0) == (g_hi < 0.0):
        raise NoSignChange(f"bisect_root: g({lo})={g_lo:g} and g({hi})={g_hi:g} share a sign")
    a, step = lo, hi - lo
    for _ in range(_BISECT_HALVINGS):
        step *= 0.5
        mid = a + step
        g_mid = value(mid)
        if (g_mid < 0.0) == (g_lo < 0.0):
            a = mid
        if g_mid == 0.0 or abs(step) < tol + _BISECT_RTOL * abs(mid):
            return mid
    raise SimulationError(f"bisect_root: no convergence to tol={tol!r} on [{lo}, {hi}] "
                          f"after {_BISECT_HALVINGS} halvings")


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


def simplex_minimize_maxtime(pop: Population, alloc: AllocationState, dim: int,
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
        lambda s: costs.local_time(pop, replace(alloc, uplink_weight=s), dim, cfg))
    if best_offload is None or best_upload is None:
        raise NoFeasiblePoint("simplex_minimize_maxtime: every grid point was degenerate")
    offload, upload = shares[[best_offload, best_upload]]
    return offload, upload
