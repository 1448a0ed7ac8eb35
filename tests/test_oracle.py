import numpy as np
import pytest

from mecfl import costs, oracle, verify
from mecfl.errors import (
    DegenerateDivisor,
    InstanceTooLarge,
    NoFeasiblePoint,
    NoSignChange,
    SimulationError,
    ValidationError,
)
from mecfl.costs import base_rate
from mecfl.oracle import bisect_root, finite_diff, grid_minimize, simplex_minimize_maxtime
from mecfl.types import SystemConfig
from dataclasses import replace

from helpers import make_alloc, make_pop


def test_grid_finds_quadratic_vertex():
    x, fx = grid_minimize(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 101)
    assert x == pytest.approx(0.30, abs=1e-12)
    assert fx == pytest.approx(0.0, abs=1e-12)


def test_grid_respects_constraint_boundary():
    x, _ = grid_minimize(lambda x: x, 0.0, 1.0, 101, constraint=lambda x: x >= 0.5)
    assert x == pytest.approx(0.5, abs=1e-12)


def test_grid_no_feasible_point():
    with pytest.raises(NoFeasiblePoint):
        grid_minimize(lambda x: x, 0.0, 1.0, 11, constraint=lambda x: x > 2.0)


def test_grid_scalar_fallback():
    # non-broadcasting callable still works
    x, _ = grid_minimize(lambda x: float(abs(x - 0.25)), 0.0, 1.0, 5)
    assert x == pytest.approx(0.25)


def test_grid_argument_validation():
    with pytest.raises(ValidationError):
        grid_minimize(lambda x: x, 0.0, 1.0, 1)
    with pytest.raises(ValidationError):
        grid_minimize(lambda x: x, 1.0, 0.0, 10)


def test_bisect_linear_root():
    assert bisect_root(lambda x: x - 0.5, 0.0, 1.0, 1e-8) == pytest.approx(0.5, abs=1e-8)


def test_bisect_sqrt_two():
    root = bisect_root(lambda x: x * x - 2.0, 1.0, 2.0, 1e-8)
    assert root == pytest.approx(1.41421356, abs=1e-8)


def test_bisect_requires_sign_change():
    with pytest.raises(NoSignChange):
        bisect_root(lambda x: x * x + 1.0, -1.0, 1.0, 1e-8)


def test_bisect_exact_endpoint_root():
    assert bisect_root(lambda x: x, 0.0, 1.0, 1e-8) == 0.0


def test_finite_diff_first_order():
    assert finite_diff(lambda x: x * x, 3.0, 1, 1e-6) == pytest.approx(6.0, abs=1e-6)


def test_finite_diff_second_order():
    assert finite_diff(lambda x: x * x, 3.0, 2, 1e-4) == pytest.approx(2.0, abs=1e-4)


def test_finite_diff_rejects_other_orders():
    with pytest.raises(ValidationError):
        finite_diff(lambda x: x, 0.0, 3, 1e-6)


def test_energy_curvature_in_offload_share_matches_analytic_expression():
    # d2 e / d share2 = 2 * p * 8 * delta * data_bytes / (share^3 * R)
    cfg = SystemConfig()
    pop = make_pop(samples=700)
    dim = 300
    share = 0.37
    alloc = make_alloc(1, delta=0.6, gamma=0.5, offload=[share], upload=[0.4])

    def energy(xs):
        stack = replace(alloc, uplink_offload=xs[:, None])
        return costs.total_energy(pop, stack, dim, cfg)[:, 0]

    fd2 = finite_diff(energy, share, 2, 1e-4)
    (analytic,) = (2.0 * pop.transmit_power * 8.0 * 0.6 * costs.dataset_bytes(pop, cfg)
                   / (share ** 3 * base_rate(pop, cfg)))
    assert fd2 == pytest.approx(analytic, rel=1e-3)
    assert fd2 >= 0.0


def test_simplex_symmetric_two_users_split_evenly():
    cfg = SystemConfig()
    pop = make_pop(2)
    alloc = make_alloc(2, delta=0.5, gamma=0.5)
    dim = 100
    offload, upload = simplex_minimize_maxtime(pop, alloc, dim, cfg, 1e-2)
    assert np.allclose(offload, [0.5, 0.5])
    assert np.allclose(upload, [0.5, 0.5])


def test_simplex_asymmetric_load_gets_proportional_share():
    # offload loads in ratio 2:1 (multiplier-weighted terms 4:1) -> shares (2/3, 1/3)
    cfg = SystemConfig()
    pop = make_pop(samples=[2000, 1000])
    alloc = make_alloc(2, delta=0.5, gamma=0.5)
    dim = 100
    offload, _ = simplex_minimize_maxtime(pop, alloc, dim, cfg, 1e-3)
    assert offload[0] == pytest.approx(2.0 / 3.0, abs=1e-3)
    assert offload[1] == pytest.approx(1.0 / 3.0, abs=1e-3)


def test_simplex_three_users_supported():
    cfg = SystemConfig()
    pop = make_pop(3)
    alloc = make_alloc(3, delta=0.5, gamma=0.5)
    dim = 100
    offload, upload = simplex_minimize_maxtime(pop, alloc, dim, cfg, 5e-2)
    assert offload.sum() == pytest.approx(1.0)
    assert upload.sum() == pytest.approx(1.0)


def test_simplex_guards_against_large_instances():
    cfg = SystemConfig()
    pop = make_pop(4)
    alloc = make_alloc(4, delta=0.5, gamma=0.5)
    dim = 100
    with pytest.raises(InstanceTooLarge):
        simplex_minimize_maxtime(pop, alloc, dim, cfg, 1e-2)


@pytest.mark.parametrize("resolution", [0.0, float("nan"), -0.1, float("inf"), 1.5])
def test_simplex_rejects_resolution_outside_unit_interval(resolution):
    pop = make_pop(2)
    with pytest.raises(ValidationError, match="resolution must be finite, > 0 and <= 1"):
        simplex_minimize_maxtime(pop, make_alloc(2), 100, SystemConfig(),
                                 resolution)


@pytest.mark.parametrize("h", [0.0, -1e-6, float("nan"), float("inf")])
@pytest.mark.parametrize("order", [1, 2])
def test_finite_diff_rejects_step_that_is_not_positive_and_finite(order, h):
    with pytest.raises(ValidationError, match="h must be finite and > 0"):
        finite_diff(lambda x: x * x, 3.0, order, h)


@pytest.mark.parametrize("tol", [0.0, -1e-8, float("nan")])
def test_bisect_rejects_tolerance_that_is_not_positive_and_finite(tol):
    with pytest.raises(ValidationError, match="tol must be finite and > 0"):
        bisect_root(lambda x: x - 0.3, 0.0, 1.0, tol)


def test_finite_diff_calls_f_once_on_the_stencil():
    seen = []

    def f(xs):
        seen.append(xs.copy())
        return xs ** 3

    assert finite_diff(f, 2.0, 1, 0.5) == (2.5 ** 3 - 1.5 ** 3) / 1.0
    assert finite_diff(f, 2.0, 2, 0.5) == (2.5 ** 3 - 2.0 * 8.0 + 1.5 ** 3) / 0.25
    assert [list(xs) for xs in seen] == [[2.5, 1.5], [2.5, 2.0, 1.5]]


# --------------------------------------------------------------------------
# the batched simplex search against the per-candidate search it replaced
# --------------------------------------------------------------------------

def _reference_compositions(total, parts):
    if parts == 1:
        return [(total,)]
    return [(head,) + rest for head in range(total + 1)
            for rest in _reference_compositions(total - head, parts - 1)]


def _reference_simplex(pop, alloc, dim, cfg, resolution):
    """One AllocationState and one cost call per composition and simplex."""
    def worst(per_user_time, *args):
        try:
            return float(per_user_time(*args).max())
        except DegenerateDivisor:
            return np.inf

    steps = int(round(1.0 / resolution))
    best_offload, best_offload_time = None, np.inf
    best_upload, best_upload_time = None, np.inf
    for combo in _reference_compositions(steps, pop.n_users):
        shares = np.array(combo, dtype=float) / steps
        t = worst(costs.edge_time_user, pop, replace(alloc, uplink_offload=shares), cfg)
        if t < best_offload_time:
            best_offload, best_offload_time = shares, t
        t = worst(costs.local_time, pop, replace(alloc, uplink_weight=shares), dim, cfg)
        if t < best_upload_time:
            best_upload, best_upload_time = shares, t
    if best_offload is None or not np.isfinite(best_upload_time):
        raise NoFeasiblePoint("reference: every grid point was degenerate")
    return best_offload, best_upload


def _assert_batched_equals_reference(pop, alloc, dim, cfg, resolution):
    batched = simplex_minimize_maxtime(pop, alloc, dim, cfg, resolution)
    reference = _reference_simplex(pop, alloc, dim, cfg, resolution)
    for got, want in zip(batched, reference):
        assert np.array_equal(got, want), (got, want)
    return batched


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_simplex_equals_reference_on_random_two_user_instances(seed):
    pop, alloc, dim, cfg = verify.random_uplink_instance(np.random.default_rng(seed))
    _assert_batched_equals_reference(pop, alloc, dim, cfg, 1e-3)


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_simplex_equals_reference_on_random_three_user_instances(seed):
    pop, alloc, dim, cfg = verify.random_delta_instance(np.random.default_rng(seed))
    _assert_batched_equals_reference(pop, alloc, dim, cfg, 2e-2)


def test_batched_simplex_gives_a_user_at_zero_delta_a_zero_offload_share():
    # user 0 offloads nothing, so a zero offload share is feasible for it and optimal
    pop = make_pop(samples=[600 + 300 * i for i in range(3)])
    alloc = make_alloc(3, delta=[0.0, 0.4, 0.7], gamma=[0.9, 0.6, 0.3])
    offload, _ = _assert_batched_equals_reference(pop, alloc, 100,
                                                  SystemConfig(), 2e-2)
    assert offload[0] == 0.0


def test_batched_simplex_ties_take_the_first_composition():
    # nobody offloads: every offload composition scores the same
    pop = make_pop(3)
    alloc = make_alloc(3, delta=0.0, gamma=0.5)
    offload, _ = _assert_batched_equals_reference(pop, alloc, 100,
                                                  SystemConfig(), 0.1)
    assert list(offload) == [0.0, 0.0, 1.0]


def test_batched_simplex_rejects_a_gamma_degenerate_instance():
    # user 1 has local data but no CPU: every upload candidate is degenerate
    cfg = SystemConfig()
    pop = make_pop(2)
    alloc = make_alloc(2, delta=0.5, gamma=[0.5, 0.0])
    dim = 100
    with pytest.raises(NoFeasiblePoint):
        _reference_simplex(pop, alloc, dim, cfg, 1e-2)
    with pytest.raises(NoFeasiblePoint):
        simplex_minimize_maxtime(pop, alloc, dim, cfg, 1e-2)


def test_batched_simplex_scores_nan_as_infinite(monkeypatch):
    # NaN wherever user 0 gets at least 0.3 of the offload band, which hides
    # the symmetric optimum (0.5, 0.5): the best scored point is (0.29, 0.71)
    original = costs.edge_time_user

    def nan_above_share(pop, alloc, cfg):
        times = original(pop, alloc, cfg)
        return np.where(alloc.uplink_offload[..., :1] >= 0.3, np.nan, times)

    monkeypatch.setattr(costs, "edge_time_user", nan_above_share)
    pop = make_pop(2)
    offload, _ = _assert_batched_equals_reference(pop, make_alloc(2), 100,
                                                  SystemConfig(), 1e-2)
    assert list(offload) == [0.29, 0.71]


# --------------------------------------------------------------------------
# bisection: scipy's loop, written out
# --------------------------------------------------------------------------

def _counted(g):
    def wrapped(x):
        wrapped.calls += 1
        return g(x)
    wrapped.calls = 0
    return wrapped


def _delta_imbalance(seed):
    """The time imbalance ``check_delta_closed_form`` bisects, on one instance."""
    pop, alloc, dim, cfg = verify.random_delta_instance(np.random.default_rng(seed))

    def imbalance(d):
        delta = alloc.delta.copy()
        delta[1] = d
        state = replace(alloc, delta=delta)
        return (costs.local_time(pop, state, dim, cfg)
                - costs.edge_time_user(pop, state, cfg))[1]

    return imbalance


_BRACKETING_SEEDS = [s for s in range(12)
                     if _delta_imbalance(s)(0.0) >= 0.0 >= _delta_imbalance(s)(1.0)]

_ROOT_CASES = {
    "linear": (lambda x: x - 0.3, 0.0, 1.0),
    "linear-falling": (lambda x: 1.0 / 3.0 - x, -2.0, 5.0),
    "cubic": (lambda x: x ** 3 - 2.0 * x - 5.0, 2.0, 3.0),
    "cubic-flat-root": (lambda x: (x - 0.7) ** 3, 0.0, 1.0),
    # products of two values underflow to zero; the signs still decide
    "tiny-values": (lambda x: (x - 0.3) * 1e-160, 0.0, 1.0),
    **{f"imbalance-{s}": (_delta_imbalance(s), 0.0, 1.0) for s in _BRACKETING_SEEDS[:4]},
}
_TOLS = [1e-14, 1e-12, 1e-10, 1e-8, 1e-5, 1e-2]


def test_verify_style_cases_bracket_a_root():
    assert len(_BRACKETING_SEEDS) >= 4


@pytest.mark.parametrize("tol", _TOLS)
@pytest.mark.parametrize("case", sorted(_ROOT_CASES))
def test_bisect_root_equals_scipy_bisect(case, tol):
    from scipy.optimize import bisect

    g, lo, hi = _ROOT_CASES[case]
    root = bisect_root(g, lo, hi, tol)
    assert root == bisect(g, lo, hi, xtol=tol)
    assert type(root) is float


@pytest.mark.parametrize("lo, hi, want", [(0.3, 1.0, 0.3), (-1.0, 0.3, 0.3)])
def test_bisect_root_at_an_endpoint_equals_scipy_bisect(lo, hi, want):
    from scipy.optimize import bisect

    g = _counted(lambda x: x - 0.3)
    assert bisect_root(g, lo, hi, 1e-12) == bisect(g, lo, hi, xtol=1e-12) == want
    assert g.calls == 2 + 2               # both ends, once in each


@pytest.mark.parametrize("case", sorted(_ROOT_CASES))
def test_bisect_root_evaluates_each_endpoint_once(case):
    # the parent evaluated g at both ends itself and then again inside
    # scipy's bisect: 2 calls more than scipy alone makes
    from scipy.optimize import bisect

    g, lo, hi = _ROOT_CASES[case]
    ours, theirs = _counted(g), _counted(g)
    bisect_root(ours, lo, hi, 1e-12)
    bisect(theirs, lo, hi, xtol=1e-12)
    assert ours.calls == theirs.calls
    assert ours.calls > 2


@pytest.mark.parametrize("g", [
    lambda x: np.nan if x == 1.0 else x - 0.3,
    lambda x: np.nan if x == 0.0 else x - 0.3,
    lambda x: np.nan if 0.2 < x < 0.6 else x - 0.3,
], ids=["at-hi", "at-lo", "mid-loop"])
def test_bisect_root_rejects_nan_values(g):
    with pytest.raises(ValidationError, match="is NaN"):
        bisect_root(g, 0.0, 1.0, 1e-8)


def test_bisect_root_raises_a_simulation_error_when_halvings_run_out():
    # |dm| never drops below tol + 4 eps |xm| near x = 0 within 100 halvings
    with pytest.raises(SimulationError, match="100 halvings"):
        bisect_root(lambda x: x, -1.0, 2.0, 1e-300)


def test_bisect_root_sign_check_does_not_underflow():
    with pytest.raises(NoSignChange):
        bisect_root(lambda x: 1e-200, 0.0, 1.0, 1e-8)


# --------------------------------------------------------------------------
# block-wise grid search against the full-grid search it replaced
# --------------------------------------------------------------------------

def _reference_grid(f, lo, hi, points, constraint=None):
    """One call of ``f`` and ``constraint`` on the whole grid."""
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
        raise NoFeasiblePoint("reference: no feasible grid point")
    best = int(np.argmin(ys))
    return float(xs[best]), float(ys[best])


_BLOCK = oracle._GRID_BLOCK


def _assert_grid_equals_reference(f, lo, hi, points, constraint=None):
    """Same (x, f(x)) bits as the reference, or NoFeasiblePoint from both."""
    try:
        want = _reference_grid(f, lo, hi, points, constraint)
    except NoFeasiblePoint:
        with pytest.raises(NoFeasiblePoint):
            grid_minimize(f, lo, hi, points, constraint)
        return None
    got = grid_minimize(f, lo, hi, points, constraint)
    assert np.array_equal(got, want), (got, want)
    return got


@pytest.mark.parametrize("points", [2, _BLOCK - 1, _BLOCK, 3 * _BLOCK, 3 * _BLOCK + 7, 10**6])
def test_block_grid_equals_full_grid(points):
    _assert_grid_equals_reference(lambda x: (x - 0.3) ** 2 + 1e-3 * np.sin(40.0 * x),
                                  0.0, 1.0, points)
    _assert_grid_equals_reference(lambda x: 1.0 / x + x, 0.0, 3.0, points,
                                  constraint=lambda x: x * x <= 0.6)


def test_block_grid_tie_across_a_block_boundary_takes_the_smallest_x():
    points = 2 * _BLOCK + 5
    xs = np.linspace(-1.0, 1.0, points)
    edge = xs[_BLOCK]                     # first point of the second block
    step = xs[1] - xs[0]

    def plateau(x):
        return np.where(np.abs(x - edge) <= 3.5 * step, 0.0, 1.0 + x * x)

    x, fx = _assert_grid_equals_reference(plateau, -1.0, 1.0, points)
    assert (x, fx) == (xs[_BLOCK - 3], 0.0)


def test_block_grid_skips_blocks_that_are_all_infeasible():
    points = 4 * _BLOCK + 3
    xs = np.linspace(0.0, 1.0, points)
    floor = xs[2 * _BLOCK + 10]
    x, _ = _assert_grid_equals_reference(lambda x: (x - 0.5) ** 2, 0.0, 1.0, points,
                                         constraint=lambda x: x >= floor)
    assert x == floor


def test_block_grid_scores_nan_as_infinite():
    points = 3 * _BLOCK + 1
    x, _ = _assert_grid_equals_reference(
        lambda x: np.where(x < 0.4, np.nan, (x - 0.3) ** 2), 0.0, 1.0, points)
    assert x >= 0.4
    assert _assert_grid_equals_reference(lambda x: np.full_like(x, np.nan),
                                         0.0, 1.0, points) is None


def test_block_grid_scalar_only_callables():
    points = _BLOCK + 3
    _assert_grid_equals_reference(lambda x: float(abs(x - 0.3)), 0.0, 1.0, points,
                                  constraint=lambda x: bool(x >= 0.5))


def test_block_grid_calls_f_and_constraint_once_per_block():
    sizes = {"f": [], "constraint": []}

    def f(x):
        sizes["f"].append(len(x))
        return x

    def constraint(x):
        sizes["constraint"].append(len(x))
        return x >= 0.0

    grid_minimize(f, 0.0, 1.0, 2 * _BLOCK + 1, constraint)
    assert sizes == {"f": [_BLOCK, _BLOCK, 1], "constraint": [_BLOCK, _BLOCK, 1]}


@pytest.mark.parametrize("lo, hi, points", [
    (-np.inf, 1.0, 101),
    (0.0, np.inf, 101),
    (0.0, 1.0, 2.5),
], ids=["lo-infinite", "hi-infinite", "points-not-integral"])
def test_grid_rejects_infinite_bounds_and_fractional_points(lo, hi, points):
    with pytest.raises(ValidationError):
        grid_minimize(lambda x: (x - 0.3) ** 2, lo, hi, points)
