import numpy as np
import pytest

from mecfl import costs, verify
from mecfl.errors import DegenerateDivisor, SimulationError, ValidationError
from mecfl.costs import base_rate
from mecfl.oracle import bisect_root, finite_diff, grid_minimize, simplex_minimize_maxtime
from mecfl.types import SystemConfig
from dataclasses import replace

from helpers import make_alloc, make_pop, stack


def test_grid_finds_quadratic_vertex():
    x, fx = grid_minimize(lambda x: (x - 0.3) ** 2, 0.0, 1.0, 101)
    assert x == pytest.approx(0.30, abs=1e-12)
    assert fx == pytest.approx(0.0, abs=1e-12)


def test_grid_respects_constraint_boundary():
    x, _ = grid_minimize(lambda x: x, 0.0, 1.0, 101, constraint=lambda x: x >= 0.5)
    assert x == pytest.approx(0.5, abs=1e-12)


def test_grid_no_feasible_point():
    with pytest.raises(SimulationError, match="grid_minimize: no feasible grid point"):
        grid_minimize(lambda x: x, 0.0, 1.0, 11, constraint=lambda x: x > 2.0)


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
    with pytest.raises(ValidationError, match="share a sign"):
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
    with pytest.raises(ValidationError, match=r"4 users \(max 3\)"):
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
        raise SimulationError("reference: every grid point was degenerate")
    return best_offload, best_upload


def _assert_batched_equals_reference(pop, alloc, dim, cfg, resolution):
    batched = simplex_minimize_maxtime(pop, alloc, dim, cfg, resolution)
    reference = _reference_simplex(pop, alloc, dim, cfg, resolution)
    for got, want in zip(batched, reference):
        assert np.array_equal(got, want), (got, want)
    return batched


def _first_instance(pop, alloc, dims, cfg, *_):
    """The first instance of a stack drawn by ``verify``, as 1-d inputs."""
    return verify.instance(pop, 0), verify.instance(alloc, 0), int(dims[0, 0]), cfg


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_batched_simplex_equals_reference_on_random_two_user_instances(seed):
    instance = _first_instance(*verify.random_uplink_instances(np.random.default_rng(seed), 1))
    _assert_batched_equals_reference(*instance, 1e-3)


@pytest.mark.parametrize("seed", [0, 1])
def test_batched_simplex_equals_reference_on_random_three_user_instances(seed):
    instance = _first_instance(*verify.random_delta_instances(np.random.default_rng(seed), 1))
    _assert_batched_equals_reference(*instance, 2e-2)


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
    with pytest.raises(SimulationError, match="reference: every grid point was degenerate"):
        _reference_simplex(pop, alloc, dim, cfg, 1e-2)
    with pytest.raises(SimulationError,
                       match="simplex_minimize_maxtime: every grid point was degenerate"):
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
# a stack of instances in one simplex search, each as if searched on its own
# --------------------------------------------------------------------------

def _assert_stack_equals_single_calls(pop, alloc, dims, cfg, resolution):
    """One stacked call vs one call per instance, bit for bit; ``dims`` is a scalar
    or one per instance."""
    stacked = simplex_minimize_maxtime(pop, alloc, dims, cfg, resolution)
    dim_of = np.broadcast_to(dims, pop.transmit_power.shape[:1] + (1,))
    singles = [simplex_minimize_maxtime(verify.instance(pop, k), verify.instance(alloc, k),
                                        int(dim_of[k, 0]), cfg, resolution)
               for k in range(len(dim_of))]
    for phase, got in enumerate(stacked):
        assert got.shape == pop.transmit_power.shape
        assert np.array_equal(got, [single[phase] for single in singles])
    return stacked


def test_stacked_simplex_equals_single_calls_on_the_full_uplink_check_instances():
    pop, alloc, dims, cfg = verify.random_uplink_instances(np.random.default_rng(37), 50)
    _assert_stack_equals_single_calls(pop, alloc, dims, cfg, verify.SIMPLEX_RESOLUTION)


def test_stacked_simplex_equals_single_calls_on_three_user_instances():
    pop, alloc, dims, cfg = verify.random_delta_instances(np.random.default_rng(3), 6)
    _assert_stack_equals_single_calls(pop, alloc, dims, cfg, 5e-2)


def test_stacked_simplex_admits_an_idle_users_zero_share_in_its_own_instance_only():
    # user 0 of instance 0 offloads nothing; in instance 1 every user offloads,
    # so a zero offload share is refused there but not in instance 0
    pops = stack([make_pop(samples=[600 + 300 * i for i in range(3)]), make_pop(3)])
    allocs = stack([make_alloc(3, delta=[0.0, 0.4, 0.7], gamma=[0.9, 0.6, 0.3]),
                    make_alloc(3, delta=0.5, gamma=0.5)])
    offload, _ = _assert_stack_equals_single_calls(pops, allocs, 100, SystemConfig(), 2e-2)
    assert offload[0, 0] == 0.0 and (offload[1] > 0.0).all()


def test_stacked_simplex_names_the_instance_without_an_admissible_candidate(monkeypatch):
    # every offload candidate of instance 2 (delta 0.25) scores NaN; the others keep theirs
    original = costs.edge_time_user

    def nan_in_one_instance(pop, alloc, cfg):
        times = original(pop, alloc, cfg)
        return np.where(alloc.delta[..., :1] == 0.25, np.nan, times)

    monkeypatch.setattr(costs, "edge_time_user", nan_in_one_instance)
    pops = stack([make_pop(2)] * 4)
    allocs = stack([make_alloc(2, delta=d) for d in (0.5, 0.4, 0.25, 0.25)])
    with pytest.raises(SimulationError, match="every grid point was degenerate for instance 2$"):
        simplex_minimize_maxtime(pops, allocs, 100, SystemConfig(), 1e-2)
    offload, _ = simplex_minimize_maxtime(verify.instance(pops, slice(2)),
                                          verify.instance(allocs, slice(2)), 100,
                                          SystemConfig(), 1e-2)
    assert offload.tolist() == [[0.5, 0.5]] * 2


def test_stacked_simplex_rejects_a_stack_with_a_gamma_degenerate_instance():
    # instance 1's user 1 has local data but no CPU, whatever the shares
    pops = stack([make_pop(2)] * 3)
    allocs = stack([make_alloc(2), make_alloc(2, delta=0.5, gamma=[0.5, 0.0]), make_alloc(2)])
    with pytest.raises(SimulationError,
                       match="simplex_minimize_maxtime: every grid point was degenerate"):
        simplex_minimize_maxtime(pops, allocs, np.full((3, 1), 100), SystemConfig(), 1e-2)


# --------------------------------------------------------------------------
# bisection: scipy's loop, written out
# --------------------------------------------------------------------------

def _counted(g):
    def wrapped(x):
        wrapped.calls += 1
        return g(x)
    wrapped.calls = 0
    return wrapped


def _lane_imbalance(pop, alloc, dims, cfg):
    """The time imbalance ``check_delta_closed_form`` bisects, of user 1 of each instance.

    Takes one instance (1-d fields, a scalar ``d``) or a stack of them (one
    lane of ``d`` per instance).
    """
    def imbalance(d):
        delta = np.where(np.arange(3) == 1, np.asarray(d)[..., None], alloc.delta)
        state = replace(alloc, delta=delta)
        return (costs.local_time(pop, state, dims, cfg)
                - costs.edge_time_user(pop, state, cfg))[..., 1]

    return imbalance


def _delta_imbalance(seed):
    """The time imbalance ``check_delta_closed_form`` bisects, on one instance."""
    return _lane_imbalance(*_first_instance(
        *verify.random_delta_instances(np.random.default_rng(seed), 1)))


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
    with pytest.raises(ValidationError, match="share a sign"):
        bisect_root(lambda x: 1e-200, 0.0, 1.0, 1e-8)


# --------------------------------------------------------------------------
# lanes: many bisections at once, each as if run on its own
# --------------------------------------------------------------------------

def test_lanewise_bisect_root_equals_per_lane_calls_on_the_delta_check_instances():
    # the instances of the full check_delta_closed_form, bisected in one call
    pop, alloc, dims, cfg = verify.random_delta_instances(np.random.default_rng(23), 200)
    whole = _lane_imbalance(pop, alloc, dims, cfg)
    bracketed = (whole(np.zeros(200)) >= 0.0) & (whole(np.ones(200)) <= 0.0)
    lanes = int(bracketed.sum())
    assert lanes == 188
    roots = bisect_root(_lane_imbalance(verify.instance(pop, bracketed),
                                        verify.instance(alloc, bracketed), dims[bracketed], cfg),
                        np.zeros(lanes), np.ones(lanes), 1e-12)
    singles = [bisect_root(_lane_imbalance(verify.instance(pop, k), verify.instance(alloc, k),
                                           int(dims[k, 0]), cfg), 0.0, 1.0, 1e-12)
               for k in np.flatnonzero(bracketed)]
    assert roots.shape == (lanes,)
    assert np.array_equal(roots, singles)


def test_lanewise_bisect_root_stops_a_lane_once_it_has_its_root():
    # lanes 1 and 2 have their roots at lo and hi; they stay there while 0 and 3 search
    offsets = np.array([0.3, 0.0, 1.0, 0.7])
    seen = []

    def g(x):
        seen.append(x.copy())
        return x - offsets

    lo, hi = np.zeros(4), np.ones(4)
    roots = bisect_root(g, lo, hi, 1e-12)
    singles = [bisect_root(lambda x, r=r: x - r, 0.0, 1.0, 1e-12) for r in offsets]
    assert np.array_equal(roots, singles)
    assert (roots[1], roots[2]) == (0.0, 1.0)
    assert all(x[1] == 0.0 and x[2] == 1.0 for x in seen[2:])


def test_lanewise_bisect_root_with_ends_per_lane_equals_scipy_bisect():
    from scipy.optimize import bisect

    lo, hi = np.array([[0.0, -2.0], [2.0, 0.0]]), np.array([[1.0, 5.0], [3.0, 1.0]])
    cases = [[lambda x: x - 0.3, lambda x: 1.0 / 3.0 - x],
             [lambda x: x ** 3 - 2.0 * x - 5.0, lambda x: (x - 0.7) ** 3]]

    def g(x):
        return np.array([[case(v) for case, v in zip(row, xs)] for row, xs in zip(cases, x)])

    roots = bisect_root(g, lo, hi, 1e-10)
    assert roots.shape == (2, 2)
    for i in range(2):
        for j in range(2):
            assert roots[i, j] == bisect(cases[i][j], lo[i, j], hi[i, j], xtol=1e-10)


def test_lanewise_bisect_root_rejects_nan_in_a_lane_still_searching():
    lane = np.arange(3)

    def g(x):
        return np.where((lane == 2) & (0.2 < x) & (x < 0.6), np.nan, x - 0.3)

    with pytest.raises(ValidationError, match=r"g\(0\.5\) is NaN"):
        bisect_root(g, np.zeros(3), np.ones(3), 1e-8)


def test_lanewise_bisect_root_ignores_nan_in_a_finished_lane():
    # lane 1 has its root at lo; g is NaN there at every point but its ends
    def g(x):
        lane_1 = np.where(x == 0.0, 0.0, np.where(x == 1.0, -1.0, np.nan))
        return np.where(np.arange(2) == 1, lane_1, x - 0.3)

    roots = bisect_root(g, np.zeros(2), np.ones(2), 1e-8)
    assert roots[0] == bisect_root(lambda x: x - 0.3, 0.0, 1.0, 1e-8)
    assert roots[1] == 0.0


def test_lanewise_bisect_root_reports_the_first_lane_without_a_sign_change():
    shift = np.array([0.3, -2.0, 0.5, -3.0])
    with pytest.raises(ValidationError, match=r"g\(0\.0\)=2 and g\(1\.0\)=3 share a sign"):
        bisect_root(lambda x: x - shift, np.zeros(4), np.ones(4), 1e-8)


def test_lanewise_bisect_root_needs_one_value_per_lane():
    with pytest.raises(ValidationError, match="one value per lane"):
        bisect_root(lambda x: x[0] - 0.3, np.zeros(3), np.ones(3), 1e-8)


@pytest.mark.parametrize("order, h", [(1, 1e-6), (2, 1e-4)])
def test_finite_diff_at_many_points_equals_per_point_calls(order, h):
    # the energy of stacked one-user instances in their offload share, each
    # point of the array against a scalar call on its own instance
    pop, alloc, dims, cfg, _ = verify.random_gamma_instances(np.random.default_rng(5), 60)

    def energy(pop, alloc, dims):
        def f(xs):
            stack = replace(alloc, uplink_offload=xs[..., None])
            return costs.total_energy(pop, stack, dims, cfg)[..., 0]
        return f

    shares = alloc.uplink_offload[:, 0]
    many = finite_diff(energy(pop, alloc, dims), shares, order, h)
    singles = [finite_diff(energy(verify.instance(pop, k), verify.instance(alloc, k),
                                  int(dims[k, 0])), float(shares[k]), order, h)
               for k in range(60)]
    assert many.shape == (60,)
    assert np.array_equal(many, singles)
    assert all(type(x) is float for x in singles)


def test_finite_diff_at_many_points_stacks_the_stencil_first():
    seen = []

    def f(xs):
        seen.append(xs.copy())
        return xs ** 3

    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    fd2 = finite_diff(f, x, 2, 0.5)
    assert seen[0].shape == (3, 2, 2)
    assert np.array_equal(seen[0][1], x)
    assert np.array_equal(fd2, [[finite_diff(f, v, 2, 0.5) for v in row] for row in x])


# --------------------------------------------------------------------------
# a stack of problems on one grid, each as if searched on its own
# --------------------------------------------------------------------------

def _reference_grid(f, lo, hi, points, constraint=None):
    """One problem: one call of ``f`` and ``constraint`` on the grid, then a scan of
    the finite feasible points for the smallest value, ties to the smallest x."""
    xs = np.linspace(lo, hi, points)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        ys = np.asarray(f(xs), dtype=float)
        feasible = (np.ones(points, dtype=bool) if constraint is None
                    else np.asarray(constraint(xs), dtype=bool))
    scored = [(y, x) for x, y, ok in zip(xs, ys, feasible) if ok and np.isfinite(y)]
    if not scored:
        raise SimulationError("reference: no feasible grid point")
    y, x = min(scored)
    return float(x), float(y)


def _assert_stack_equals_reference(rows, lo, hi, points):
    """One stacked call vs one reference call per ``(f, constraint)`` row, bit for bit.

    A row without a feasible point makes the stacked call name the first such
    row; the other rows are then compared in a stack without them. Returns the
    winner of every row that has one, by row index.
    """
    def stacked(rows):
        return grid_minimize(
            lambda x: np.stack([f(x) for f, _ in rows]), lo, hi, points,
            lambda x: np.stack([np.ones(points, dtype=bool) if c is None else c(x)
                                for _, c in rows]))

    want, empty = {}, []
    for k, (f, constraint) in enumerate(rows):
        try:
            want[k] = _reference_grid(f, lo, hi, points, constraint)
        except SimulationError:
            empty.append(k)
    if empty:
        with pytest.raises(SimulationError, match=rf"^grid_minimize: no feasible grid point "
                                                  rf"for problem {empty[0]}$"):
            stacked(rows)
    xs, ys = stacked([rows[k] for k in want])
    assert xs.tobytes() == np.array([x for x, _ in want.values()]).tobytes()
    assert ys.tobytes() == np.array([y for _, y in want.values()]).tobytes()
    return want


_POINTS = 1001
_XS = np.linspace(-1.0, 1.0, _POINTS)
_STEP = _XS[1] - _XS[0]
_SUBNORMAL = 5e-324          # linspace's step (hi - lo) / (points - 1) underflows to 0
_GRID_CASES = {
    # (lo, hi, rows of (f, constraint), {row: the winner it must have})
    "ties": (-1.0, 1.0, [
        (lambda x: np.where(np.abs(x - _XS[600]) <= 3.5 * _STEP, 0.0, 1.0 + x * x), None),
        (lambda x: np.zeros_like(x), None),
        (lambda x: np.round(x, 1) ** 2, None),
    ], {0: (_XS[597], 0.0), 1: (-1.0, 0.0), 2: (_XS[475], 0.0)}),
    "nan-rows": (-1.0, 1.0, [
        (lambda x: np.where(x < _XS[700], np.nan, x), None),
        (lambda x: np.where(np.abs(x - 0.3) < 0.1, np.nan, (x - 0.3) ** 2), None),
        (lambda x: np.full_like(x, np.nan), None),
    ], {0: (_XS[700], _XS[700])}),
    "all-infeasible-row": (-1.0, 1.0, [
        (lambda x: (x - 0.3) ** 2 + 1e-3 * np.sin(40.0 * x), None),
        (lambda x: x, lambda x: x > 2.0),
        (lambda x: (x + 0.5) ** 2, lambda x: x > 2.0),
        (lambda x: 1.0 / x + x, lambda x: x * x <= 0.6),
    ], {}),
    "feasible-only-late": (-1.0, 1.0, [
        (lambda x: (x - 0.5) ** 2, lambda x: x >= _XS[-3]),
        (lambda x: -x, lambda x: x >= 1.0),
        (lambda x: x, lambda x: x >= _XS[-3]),
    ], {0: (_XS[-3], (_XS[-3] - 0.5) ** 2), 1: (1.0, -1.0), 2: (_XS[-3], _XS[-3])}),
    "subnormal-span": (0.0, _SUBNORMAL, [
        (lambda x: (_SUBNORMAL - x) / x + x, lambda x: x * x <= 0.6 * _SUBNORMAL ** 2),
        # -1/5e-324 overflows to -inf, which scores +inf like any overflow
        (lambda x: np.where(x > 0.0, -1.0 / x, 1.0), None),
        # 1/5e-324 overflows too: no point of the row is finite
        (lambda x: 1.0 / x + x, None),
    ], {0: (_SUBNORMAL, _SUBNORMAL), 1: (0.0, 1.0)}),
}


@pytest.mark.parametrize("case", sorted(_GRID_CASES))
def test_stacked_grid_equals_one_reference_call_per_row(case):
    lo, hi, rows, winners = _GRID_CASES[case]
    got = _assert_stack_equals_reference(rows, lo, hi, _POINTS)
    for row, winner in winners.items():
        assert got[row] == winner, row


def test_grid_returns_arrays_of_the_stack_shape_and_names_a_problem_by_its_index():
    xs = np.linspace(0.0, 1.0, 11)
    at = np.array([[1, 5, 9], [2, 4, 6]])
    x, fx = grid_minimize(lambda g: (g - xs[at][..., None]) ** 2, 0.0, 1.0, 11)
    assert x.shape == fx.shape == (2, 3)
    assert np.array_equal(x, xs[at]) and not fx.any()
    assert grid_minimize(lambda g: (g - 0.3) ** 2, 0.0, 1.0, 11) == (xs[3], (xs[3] - 0.3) ** 2)
    last = (np.arange(6).reshape(2, 3) == 5)[..., None]
    with pytest.raises(SimulationError, match=r"for problem \(1, 2\)$"):
        grid_minimize(lambda g: (g - xs[at][..., None]) ** 2, 0.0, 1.0, 11,
                      lambda g: ~last & (g >= 0.0))


@pytest.mark.parametrize("f, constraint", [
    (lambda x: 0.25, None),                       # one value for the whole grid
    (lambda x: x[:-1], None),                     # one value too few
    (lambda x: np.stack([x, x], axis=-1), None),  # the points on the wrong axis
    (lambda x: x, lambda x: True),                # one verdict for the whole grid
], ids=["f-scalar", "f-short", "f-points-first", "constraint-scalar"])
def test_grid_rejects_callables_without_one_value_per_point(f, constraint):
    with pytest.raises(ValidationError, match="must return one value per grid point"):
        grid_minimize(f, 0.0, 1.0, 101, constraint)


def test_grid_calls_f_and_constraint_once_on_the_linspace_grid():
    seen = []
    for lo, hi in (0.0, 1.0), (0.0, _SUBNORMAL):
        grid_minimize(lambda x: seen.append(x.copy()) or x, lo, hi, _POINTS,
                      lambda x: seen.append(x.copy()) or x >= lo)
        assert len(seen) == 2
        for xs in seen:
            assert xs.tobytes() == np.linspace(lo, hi, _POINTS).tobytes()
        seen.clear()


@pytest.mark.parametrize("lo, hi, points", [
    (-np.inf, 1.0, 101),
    (0.0, np.inf, 101),
    (0.0, 1.0, 2.5),
], ids=["lo-infinite", "hi-infinite", "points-not-integral"])
def test_grid_rejects_infinite_bounds_and_fractional_points(lo, hi, points):
    with pytest.raises(ValidationError):
        grid_minimize(lambda x: (x - 0.3) ** 2, lo, hi, points)
