"""Brute-force numeric verification tools.

These deliberately know nothing about the closed-form solutions they are
used to certify: grid search, bisection, central finite differences, and
an exhaustive simplex search for tiny bandwidth-allocation instances. They
evaluate the shared cost functions (re-deriving the formulas twice would
only double the typo risk); the independence lies in the optimization
step itself.

Candidates are scored as one batch, not one at a time: the simplex search
puts every composition of a simplex into one stacked
:class:`AllocationState` and makes one cost-model call per simplex,
``finite_diff`` evaluates its stencil at an array of points in one call of
``f``, ``bisect_root`` bisects an array of lanes at once, and
``grid_minimize`` scores a stack of problems on one ``linspace`` grid in
one call of ``f``.
``bisect_root`` is scipy's bisection written out, with the same roots bit
for bit, so importing the package does not load ``scipy.optimize``.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import replace

import numpy as np

from . import costs
from .errors import DegenerateDivisor, SimulationError, ValidationError
from .types import AllocationState, Population, SystemConfig, _require_positive

_BISECT_HALVINGS = 100                    # scipy's default maxiter
_BISECT_RTOL = 4 * sys.float_info.epsilon  # scipy's default rtol


def grid_minimize(f, lo: float, hi: float, points: int, constraint=None):
    """Feasible grid point minimizing ``f`` on [lo, hi], for every problem of a stack.

    The grid is ``np.linspace(lo, hi, points)``, built once; resolution is
    (hi-lo)/(points-1). ``f`` (and ``constraint``, a boolean predicate) is
    called once on it and may return any stack ``(..., points)`` of problems,
    one value per grid point along the last axis (the two broadcast
    together); anything else raises :class:`ValidationError`. NaN, overflowed
    and infeasible points score +inf; ties take the smallest x. Returns
    ``(x, f(x))``: floats for a 1-d result, arrays of the stack shape
    otherwise. "No feasible grid point" names the first problem without one.
    """
    if not isinstance(points, numbers.Integral) or points < 2:
        raise ValidationError(f"grid_minimize: points must be an integer >= 2, got {points!r}")
    if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
        raise ValidationError(f"grid_minimize: need finite lo < hi, got [{lo}, {hi}]")
    xs = np.linspace(lo, hi, points)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ys = np.asarray(f(xs), dtype=float)
        feasible = (np.ones(points, dtype=bool) if constraint is None
                    else np.asarray(constraint(xs), dtype=bool))
    if ys.shape[-1:] != (points,) or feasible.shape[-1:] != (points,):
        raise ValidationError("grid_minimize: f and constraint must return one value per grid "
                              "point, along the last axis")
    scores = np.where(feasible & np.isfinite(ys), ys, np.inf)
    best = np.argmin(scores, axis=-1)           # the first of equal scores: the smallest x
    best_y = scores.min(axis=-1)
    missing = np.isinf(best_y)
    if missing.any():
        where = [int(i) for i in np.argwhere(missing)[0]]   # empty for a 1-d result
        raise SimulationError("grid_minimize: no feasible grid point" + (
            f" for problem {where[0] if len(where) == 1 else tuple(where)}" if where else ""))
    if best_y.ndim == 0:
        return float(xs[best]), float(best_y)
    return xs[best], best_y


def bisect_root(g, lo, hi, tol: float):
    """Root of ``g`` on [lo, hi] in every lane, bracketed to width <= tol.

    ``lo`` and ``hi`` broadcast to the lane shape; ``g`` maps one point per
    lane to one value per lane. Each lane runs scipy's ``bisect``
    (``Zeros/bisect.c``: relative tolerance 4 eps, at most 100 halvings) and
    gets its root bit for bit; a lane that has its root stays there. Signs
    are compared, not the product ``g(mid) * g(lo)``, which can underflow.
    Each end is evaluated once. The first lane with a NaN value while it
    searches, or else the first with ends of one sign, raises
    :class:`ValidationError` naming its values. Scalar ends are one 0-d
    lane, root a float.
    """
    _require_positive("bisect_root", tol=tol)
    lo, hi = (np.array(end, dtype=float) for end in np.broadcast_arrays(lo, hi))

    def value(x: np.ndarray, searching: np.ndarray) -> np.ndarray:
        y = np.asarray(g(x), dtype=float)
        if y.shape != lo.shape:
            raise ValidationError(f"bisect_root: g must return one value per lane, got shape "
                                  f"{y.shape} for {lo.shape}")
        nan = searching & np.isnan(y)
        if nan.any():
            raise ValidationError(f"bisect_root: g({float(x.flat[nan.argmax()])!r}) is NaN")
        return y

    searching = np.ones(lo.shape, dtype=bool)
    g_lo, g_hi = value(lo, searching), value(hi, searching)
    root = np.where(g_lo == 0.0, lo, hi)
    searching = (g_lo != 0.0) & (g_hi != 0.0)
    same_sign = searching & ((g_lo < 0.0) == (g_hi < 0.0))
    if same_sign.any():
        k = same_sign.argmax()
        raise ValidationError(f"bisect_root: g({lo.flat[k]})={g_lo.flat[k]:g} and "
                           f"g({hi.flat[k]})={g_hi.flat[k]:g} share a sign")
    a, step = lo, hi - lo
    for _ in range(_BISECT_HALVINGS):
        if not searching.any():
            break
        step = step * 0.5
        mid = np.where(searching, a + step, root)
        g_mid = value(mid, searching)
        a = np.where(searching & ((g_mid < 0.0) == (g_lo < 0.0)), mid, a)
        found = searching & ((g_mid == 0.0) | (np.abs(step) < tol + _BISECT_RTOL * np.abs(mid)))
        root = np.where(found, mid, root)
        searching &= ~found
    if searching.any():
        k = searching.argmax()
        raise SimulationError(f"bisect_root: no convergence to tol={tol!r} on [{lo.flat[k]}, "
                              f"{hi.flat[k]}] after {_BISECT_HALVINGS} halvings")
    return float(root) if root.ndim == 0 else root


def finite_diff(f, x, order: int, h: float):
    """Central finite difference of first or second order at every point of ``x``.

    ``f`` is called once, on the stencil points stacked along a new first
    axis (``[x+h, x-h]``, or ``[x+h, x, x-h]`` for the second order), and
    must return one value per point. A scalar ``x`` gives a float.
    """
    if order not in (1, 2):
        raise ValidationError(f"finite_diff: order must be 1 or 2, got {order}")
    _require_positive("finite_diff", h=h)
    x = np.asarray(x, dtype=float)
    values = f(np.array([x + h, x - h] if order == 1 else [x + h, x, x - h]))
    diff = ((values[0] - values[1]) / (2.0 * h) if order == 1
            else (values[0] - 2.0 * values[1] + values[2]) / (h * h))
    return float(diff) if x.ndim == 0 else diff


def _compositions(total: int, parts: int) -> np.ndarray:
    """All nonnegative integer vectors of the given length summing to total, one per
    row, in lexicographic order: every head of ``parts - 1`` entries that leaves room."""
    heads = np.indices((total + 1,) * (parts - 1)).reshape(parts - 1, (total + 1) ** (parts - 1)).T
    used = heads.sum(axis=1)
    fits = used <= total
    return np.column_stack([heads[fits], total - used[fits]])


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
    allocation of its (steps+1)(steps+2)/2 compositions at 3 users, for
    steps = round(1 / resolution); building them takes a grid of (steps+1)**2
    index pairs first, so memory grows with that.
    """
    n = pop.n_users
    if n > 3:
        raise ValidationError(f"simplex_minimize_maxtime: {n} users (max 3)")
    if not (math.isfinite(resolution) and 0 < resolution <= 1):
        raise ValidationError("simplex_minimize_maxtime: resolution must be finite, > 0 "
                              f"and <= 1, got {resolution!r}")
    steps = int(round(1.0 / resolution))
    shares = _compositions(steps, n) / steps
    starved = shares <= 0.0
    best_offload = _fastest(
        shares, starved & (alloc.delta > 0.0),
        lambda s: costs.edge_time_user(pop, replace(alloc, uplink_offload=s), cfg))
    best_upload = _fastest(
        shares, starved,
        lambda s: costs.local_time(pop, replace(alloc, uplink_weight=s), dim, cfg))
    if best_offload is None or best_upload is None:
        raise SimulationError("simplex_minimize_maxtime: every grid point was degenerate")
    offload, upload = shares[[best_offload, best_upload]]
    return offload, upload
