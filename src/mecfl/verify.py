"""Closed-form solutions checked against the brute-force oracles.

Each check draws randomized instances from its own fixed seed, solves them
twice (closed form and oracle) and reports one :class:`CheckResult`; its
one parameter is its count. The CLI and the acceptance tests run these.

A check draws its instances one after another from its seeded stream and
stacks them (fields ``(instances, users)``, weight dimensions
``(instances, 1)``); each closed form, the costs, the bisection and the
finite differences then run once on the stack: the CPU-fraction check
bisects every budget-bound instance at once and cross-checks all of them
on one stacked grid. Only the simplex oracle of the bandwidth check runs
per instance.

The bandwidth check constructs instances whose multipliers are consistent
with the optimum they encode (offload multipliers proportional to the
per-user offload load, upload multipliers to the upload load, and one
common local-compute time): at such points the square-root-proportional
shares are exactly the minimizer of the worst per-user completion time,
which is what the exhaustive oracle finds. For arbitrary multipliers the
closed form is a weighted allocation, not the max-time minimizer, so there
is nothing to compare against.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace

import numpy as np

from . import costs
from .costs import base_rate
from .oracle import bisect_root, finite_diff, grid_minimize, simplex_minimize_maxtime
from .optimizer import solve_delta, solve_gamma, solve_uplink
from .types import AllocationState, Population, SystemConfig

GAMMA_MATCH_TOL = 1e-12
GRID_POINTS = 1001           # gamma cross-check resolution: one step is 1e-3
DELTA_MATCH_TOL = 1e-8
BALANCE_RTOL = 1e-6
ENERGY_RTOL = 1e-6
SIMPLEX_RESOLUTION = 1e-3
SIMPLEX_SUM_TOL = 1e-12
CURVATURE_FLOOR = -1e-6
FD_STEP_FIRST = 1e-6
FD_STEP_SECOND = 1e-4
SIGN_MARGIN = 1e-12
_DEFAULT_CONFIG = SystemConfig()   # every instance uses the defaults; the type is frozen
_TARGET, _TARGET_FIRST = 1, [1, 0, 2]   # the delta check's user, and its users target first


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # numpy bools are coerced so the result serializes as plain JSON
        object.__setattr__(self, "passed", bool(self.passed))


def _draw_instances(rng, count: int, n_users: int, draw_rest):
    """``count`` instances, each drawing its users in turn (transmit power, channel
    gain, CPU rate, dataset size), then ``draw_rest(rng)``; stacked, 1 J placeholder budgets."""
    users, rest = [], []
    for _ in range(count):
        users.append([(rng.uniform(0.1, 0.5), 10.0 ** rng.uniform(-8.0, -5.0),
                       rng.uniform(0.8e9, 3.0e9), rng.integers(100, 2001))
                      for _ in range(n_users)])
        rest.append(draw_rest(rng))
    power, gain, cpu, size = np.moveaxis(np.array(users, dtype=float), -1, 0)
    pop = Population(power, gain, cpu, np.ones_like(power), size)
    return pop, [np.array(column) for column in zip(*rest)]


def _one_user_instances(rng, count: int, delta, gamma, share, *extra):
    """``count`` one-user instances: each draws its user, delta, gamma and both shares
    uniform on the given ranges, its weight dimension, then one uniform per ``extra``
    range. Returns the population, the allocations, the dimensions and the extras."""
    pop, (d, g, off, up, dims, *rest) = _draw_instances(rng, count, 1, lambda rng: (
        rng.uniform(*delta), rng.uniform(*gamma), rng.uniform(*share), rng.uniform(*share),
        rng.integers(100, 8001), *(rng.uniform(*bounds) for bounds in extra)))
    alloc = AllocationState(delta=d[:, None], gamma=g[:, None], uplink_offload=off[:, None],
                            uplink_weight=up[:, None], lambda_offload=[0.5], lambda_local=[0.5])
    return pop, alloc, dims[:, None], rest


def instance(stack, index):
    """What ``index`` picks of a stacked Population or AllocationState, e.g. ``(k, users)``."""
    return replace(stack, **{f.name: getattr(stack, f.name)[index] for f in fields(stack)})


def random_gamma_instances(rng, count: int):
    """``count`` single-user instances, each with its budget at a known CPU fraction.

    The budget is transmission energy plus the training energy of a target
    fraction u ~ U(0.1, 1.5), so the unclamped solution is exactly u:
    interior when u < 1, clamped at 1 otherwise. Returns
    ``(pop, alloc, dims, cfg, transmission)``, every array ``(count, 1)``.
    """
    cfg = _DEFAULT_CONFIG
    pop, alloc, dims, (target,) = _one_user_instances(rng, count, (0.05, 0.9), (0.1, 1.0),
                                                      (0.05, 0.9), (0.1, 1.5))
    rate, data, power = base_rate(pop, cfg), costs.dataset_bytes(pop, cfg), pop.transmit_power
    transmission = (costs.transmit_energy(power, alloc.delta * data, alloc.uplink_offload, rate)
                    + costs.transmit_energy(power, costs.weights_bytes(dims, cfg),
                                            alloc.uplink_weight, rate))
    # Per instance in Python floats, whose ** is C's pow: numpy squares u * cpu by
    # multiplying, which differs in the last bit for about one product in a thousand.
    compute_at_target = [
        costs.training_energy(cfg.chip_capacitance, kept, cfg.cycles_per_byte, u, cpu)
        for kept, u, cpu in zip((1.0 - alloc.delta[:, 0]) * data[:, 0], target.tolist(),
                                pop.cpu_hz[:, 0].tolist())]
    pop = replace(pop, energy_budget=transmission + np.array(compute_at_target)[:, None])
    return pop, alloc, dims, cfg, transmission


def check_gamma_closed_form(n_instances: int = 200) -> CheckResult:
    """CPU-fraction closed form vs bisection on each instance's energy budget.

    Energy rises with gamma, so the best gamma is 1 where the budget affords
    it and otherwise the root of energy(gamma) = budget: one lane-wise
    bisection finds it for every budget-bound instance. One stacked grid
    search over all instances, which assumes none of this, must agree to
    within its step.
    """
    rng = np.random.default_rng(11)
    step = 1.0 / (GRID_POINTS - 1)
    pop, alloc, dims, cfg, transmission = random_gamma_instances(rng, n_instances)
    solved, exhausted = solve_gamma(pop, alloc, dims, cfg)
    if exhausted.any():
        return CheckResult("gamma-closed-form", False, "unexpected exhausted budget")
    kept = (1.0 - alloc.delta) * costs.dataset_bytes(pop, cfg)
    cpu, budget = pop.cpu_hz, pop.energy_budget

    def energy(g, k=...):   # of the instances k at CPU fraction g
        return (costs.training_energy(cfg.chip_capacitance, kept[k], cfg.cycles_per_byte, g,
                                      cpu[k]) + transmission[k])

    bound = energy(1.0) > budget   # the budget does not afford gamma = 1
    best = np.ones_like(solved)
    best[bound] = bisect_root(lambda g: energy(g, bound) - budget[bound],
                              np.zeros(int(bound.sum())), 1.0,
                              1e-15)   # brackets far narrower than GAMMA_MATCH_TOL
    worst_gap = np.abs(solved - best).max()
    grid_best, _ = grid_minimize(
        lambda g: costs.training_time(kept, cfg.cycles_per_byte, g, cpu), 0.0, 1.0, GRID_POINTS,
        lambda g: energy(g) <= budget)
    grid_gap = np.abs(solved[:, 0] - grid_best).max()
    interior = (solved > 0.0) & (solved < 1.0)
    spent = costs.total_energy(pop, replace(alloc, gamma=solved), dims, cfg)
    mismatch = np.abs(spent - budget) / budget
    worst_energy = mismatch[interior].max(initial=0.0)
    passed = (worst_gap <= GAMMA_MATCH_TOL and grid_gap <= step + 1e-12
              and worst_energy <= ENERGY_RTOL and interior.any())
    return CheckResult("gamma-closed-form", passed, f"{n_instances} instances ({interior.sum()} "
                       f"interior): max |gap|={worst_gap:.3g} (bisection on the budget), "
                       f"max grid gap={grid_gap:.3g} (grid step {step:.1g}), "
                       f"max budget mismatch={worst_energy:.3g}")


def random_delta_instances(rng, count: int):
    """``count`` three-user instances with random fractions and shares, stacked."""
    pop, (offload, upload, delta, gamma, dims) = _draw_instances(
        rng, count, 3, lambda rng: (rng.dirichlet(np.ones(3)) * rng.uniform(0.7, 1.0),
                                    rng.dirichlet(np.ones(3)) * rng.uniform(0.7, 1.0),
                                    rng.uniform(0.05, 0.95, 3), rng.uniform(0.2, 1.0, 3),
                                    rng.integers(100, 8001)))
    alloc = AllocationState(delta=delta, gamma=gamma, uplink_offload=offload,
                            uplink_weight=upload, lambda_offload=np.full(3, 0.5),
                            lambda_local=np.full(3, 0.5))
    return pop, alloc, dims[:, None], _DEFAULT_CONFIG


def _imbalance(pop, alloc, dims, cfg, d):
    """Local minus edge completion time of each instance's target user at its
    offload fraction ``d``, and the larger of the two times."""
    state = replace(alloc, delta=np.where(np.arange(alloc.n_users) == _TARGET,
                                          d[..., None], alloc.delta))
    t_local = costs.local_time(pop, state, dims, cfg)[..., _TARGET]
    t_edge = costs.edge_time_user(pop, state, cfg)[..., _TARGET]
    return t_local - t_edge, np.maximum(t_local, t_edge)


def check_delta_closed_form(n_instances: int = 200) -> CheckResult:
    """Offload-fraction closed form vs bisection on the time imbalance.

    One sweep over the stack, each instance ordered with the target user
    first, answers the one-player closed form against the others' previous
    fractions. All instances that bracket a root are bisected together.
    """
    rng = np.random.default_rng(23)
    pop, alloc, dims, cfg = random_delta_instances(rng, n_instances)
    solved = solve_delta(instance(pop, (slice(None), _TARGET_FIRST)),
                         instance(alloc, (slice(None), _TARGET_FIRST)), dims, cfg)[:, 0]
    lo, hi = _imbalance(pop, alloc, dims, cfg, np.array([[0.0], [1.0]]))[0]   # delta = 0, 1
    clamp_zero = lo < 0.0
    clamp_one = ~clamp_zero & (hi > 0.0)
    wrong = (clamp_zero & (solved != 0.0)) | (clamp_one & (solved != 1.0))
    if wrong.any():
        k = int(wrong.argmax())
        return CheckResult("delta-closed-form", False,
                           f"expected clamp at {0 if clamp_zero[k] else 1}, got {solved[k]}")
    bracketed = ~clamp_zero & ~clamp_one
    inner = instance(pop, bracketed), instance(alloc, bracketed), dims[bracketed], cfg
    ends = np.zeros(int(bracketed.sum()))
    roots = bisect_root(lambda d: _imbalance(*inner, d)[0], ends, ends + 1.0, 1e-12)
    solved = solved[bracketed]
    worst_gap = np.abs(solved - roots).max(initial=0.0)
    interior = (solved > 0.0) & (solved < 1.0)
    gap, slower = _imbalance(*inner, solved)
    worst_balance = (np.abs(gap) / slower)[interior].max(initial=0.0)
    passed = worst_gap <= DELTA_MATCH_TOL and worst_balance <= BALANCE_RTOL and interior.any()
    return CheckResult("delta-closed-form", passed, f"{n_instances} instances ({interior.sum()} "
                       f"interior): max |gap|={worst_gap:.3g}, "
                       f"max time imbalance={worst_balance:.3g}")


def random_uplink_instances(rng, count: int):
    """``count`` two-user instances whose multipliers encode the max-time optimum, stacked."""
    cfg = _DEFAULT_CONFIG
    pop, (dims, delta, slack) = _draw_instances(
        rng, count, 2, lambda rng: (rng.integers(100, 8001), rng.uniform(0.2, 0.9, 2),
                                    rng.uniform(0.3, 0.95)))
    dims = dims[:, None]
    rates, data, cpu = base_rate(pop, cfg), costs.dataset_bytes(pop, cfg), pop.cpu_hz
    # One shared local-compute time makes the upload-side optimum purely
    # proportional; gamma realizes it.
    compute_floor = (1.0 - delta) * data * cfg.cycles_per_byte / cpu
    common_time = compute_floor.max(axis=-1, keepdims=True) / slack[:, None]
    gamma = (1.0 - delta) * data * cfg.cycles_per_byte / (common_time * cpu)
    offload_load = delta * data / rates
    upload_load = costs.weights_bytes(dims, cfg) / rates
    alloc = AllocationState(delta=delta, gamma=gamma, uplink_offload=np.full(2, 0.5),
                            uplink_weight=np.full(2, 0.5),
                            lambda_offload=offload_load / offload_load.sum(-1, keepdims=True),
                            lambda_local=upload_load / upload_load.sum(-1, keepdims=True))
    return pop, alloc, dims, cfg


def check_uplink_closed_form(n_instances: int = 50) -> CheckResult:
    """Bandwidth-share closed form, on the stack, vs the exhaustive simplex search per instance."""
    rng = np.random.default_rng(37)
    pops, allocs, dims, cfg = random_uplink_instances(rng, n_instances)
    closed = np.array(solve_uplink(pops, allocs, dims, cfg))   # (phase, instance, user)
    oracle = np.stack([simplex_minimize_maxtime(instance(pops, k), instance(allocs, k), dim, cfg,
                                                SIMPLEX_RESOLUTION)
                       for k, dim in enumerate(dims[:, 0].tolist())], axis=1)
    worst_gap = float(np.abs(closed - oracle).max())
    worst_sum = float(np.abs(closed.sum(axis=-1) - 1.0).max())
    passed = worst_gap <= SIMPLEX_RESOLUTION + 1e-12 and worst_sum <= SIMPLEX_SUM_TOL
    return CheckResult("uplink-closed-form", passed, f"{n_instances} instances: max share "
                       f"gap={worst_gap:.3g} (resolution {SIMPLEX_RESOLUTION:g}), "
                       f"max |sum-1|={worst_sum:.3g}")


def _analytic_first_derivatives(pop, alloc, dims, cfg):
    """Hand-coded first derivatives of each instance's one user, used as the sign reference."""
    rate, data = base_rate(pop, cfg), costs.dataset_bytes(pop, cfg)
    weights = costs.weights_bytes(dims, cfg)
    delta, gamma, off, up = alloc.delta, alloc.gamma, alloc.uplink_offload, alloc.uplink_weight
    p, cpu, tau = pop.transmit_power, pop.cpu_hz, cfg.cycles_per_byte
    return {
        ("energy", "gamma"): 2.0 * cfg.chip_capacitance * (1.0 - delta) * data * tau
                             * gamma * cpu ** 2,
        ("energy", "uplink_offload"): -8.0 * p * delta * data / (off ** 2 * rate),
        ("energy", "uplink_weight"): -8.0 * p * weights / (up ** 2 * rate),
        ("local_time", "gamma"): -(1.0 - delta) * data * tau / (gamma ** 2 * cpu),
        ("local_time", "uplink_weight"): -8.0 * weights / (up ** 2 * rate),
    }


def check_curvature_and_monotonicity(points_per_pair: int = 1000) -> CheckResult:
    """Finite-difference convexity and first-derivative signs of the costs."""
    rng, cfg = np.random.default_rng(41), _DEFAULT_CONFIG
    ranges = (0.1, 0.9), (0.05, 0.95), (0.05, 0.95)   # of delta, gamma and the shares
    # The pairs are read off one instance that is then dropped: drawing it
    # keeps every later point, and so the certificates, those of the seed.
    pairs = list(_analytic_first_derivatives(*_one_user_instances(rng, 1, *ranges)[:3], cfg))
    min_fd2 = np.inf
    for quantity, variable in pairs:
        pop, alloc, dims, _ = _one_user_instances(rng, points_per_pair, *ranges)
        reference = _analytic_first_derivatives(pop, alloc, dims, cfg)[(quantity, variable)][:, 0]
        cost = costs.total_energy if quantity == "energy" else costs.local_time

        def evaluate(xs):   # one candidate per stencil point and instance, as one stack
            return cost(pop, replace(alloc, **{variable: xs[..., None]}), dims, cfg)[..., 0]

        x0 = getattr(alloc, variable)[:, 0]
        fd1 = finite_diff(evaluate, x0, 1, FD_STEP_FIRST)
        fd2 = finite_diff(evaluate, x0, 2, FD_STEP_SECOND)
        wrong_sign = (np.abs(fd1) <= SIGN_MARGIN) | (np.sign(fd1) != np.sign(reference))
        failed = wrong_sign | (fd2 < CURVATURE_FLOOR)
        if failed.any():   # the first failing point, its sign checked first
            k = int(failed.argmax())
            return CheckResult("curvature-monotonicity", False, (
                f"sign mismatch for d({quantity})/d({variable}): fd={fd1[k]:.3g}, "
                f"analytic={reference[k]:.3g}" if wrong_sign[k] else
                f"negative curvature for {quantity} in {variable}: {fd2[k]:.3g}"))
        min_fd2 = min(min_fd2, fd2.min())
    return CheckResult("curvature-monotonicity", True, f"{len(pairs)} derivative pairs x "
                       f"{points_per_pair} points: signs match, min curvature {min_fd2:.3g}")


def run_all(fast: bool = False) -> list[CheckResult]:
    """Run every closed-form-vs-oracle check; ``fast`` shrinks the counts."""
    scale = 10 if fast else 1
    return [
        check_gamma_closed_form(n_instances=200 // scale),
        check_delta_closed_form(n_instances=200 // scale),
        check_uplink_closed_form(n_instances=50 // scale),
        check_curvature_and_monotonicity(points_per_pair=1000 // scale),
    ]
