"""Closed-form solutions checked against the brute-force oracles.

Each check draws randomized instances, solves them twice (closed form and
oracle), and reports one :class:`CheckResult`. The CLI ``verify`` command
and the acceptance tests both run these.

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

GRID_POINTS = 10**6          # gamma oracle resolution: one step is 1e-6
DELTA_MATCH_TOL = 1e-8
BALANCE_RTOL = 1e-6
ENERGY_RTOL = 1e-6
SIMPLEX_RESOLUTION = 1e-3
SIMPLEX_SUM_TOL = 1e-12
CURVATURE_FLOOR = -1e-6
FD_STEP_FIRST = 1e-6
FD_STEP_SECOND = 1e-4
SIGN_MARGIN = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str

    def __post_init__(self):
        # numpy bools are coerced so the result serializes as plain JSON
        object.__setattr__(self, "passed", bool(self.passed))


def _random_population(rng, n_users: int) -> Population:
    """Per user in turn: transmit power, channel gain, CPU rate, dataset size."""
    draws = [(rng.uniform(0.1, 0.5), 10.0 ** rng.uniform(-8.0, -5.0),
              rng.uniform(0.8e9, 3.0e9), rng.integers(100, 2001)) for _ in range(n_users)]
    power, gain, cpu, size = zip(*draws)
    return Population(transmit_power=power, channel_gain=gain, cpu_hz=cpu,
                      energy_budget=np.ones(n_users),  # placeholder; instance builders overwrite it
                      dataset_size=size)


def random_gamma_instance(rng):
    """Single-user instance with the budget placed at a known CPU fraction.

    The budget is transmission energy plus the training energy of a target
    fraction u ~ U(0.1, 1.5), so the unclamped solution is exactly u:
    interior when u < 1, clamped at 1 otherwise.
    """
    cfg = SystemConfig()
    pop = _random_population(rng, 1)
    delta = float(rng.uniform(0.05, 0.9))
    alloc = AllocationState(
        delta=[delta],
        gamma=[float(rng.uniform(0.1, 1.0))],
        uplink_offload=[float(rng.uniform(0.05, 0.9))],
        uplink_weight=[float(rng.uniform(0.05, 0.9))],
        lambda_offload=[0.5],
        lambda_local=[0.5],
    )
    dim = int(rng.integers(100, 8001))
    (rate,), (data,) = base_rate(pop, cfg), costs.dataset_bytes(pop, cfg)
    power, cpu = float(pop.transmit_power[0]), float(pop.cpu_hz[0])
    transmission = (
        costs.transmit_energy(power, delta * data, alloc.uplink_offload[0], rate)
        + costs.transmit_energy(power, costs.weights_bytes(dim, cfg), alloc.uplink_weight[0], rate)
    )
    target = float(rng.uniform(0.1, 1.5))
    compute_at_target = costs.training_energy(
        cfg.chip_capacitance, (1.0 - delta) * data, cfg.cycles_per_byte, target, cpu,
    )
    pop = replace(pop, energy_budget=[transmission + compute_at_target])
    return pop, alloc, dim, cfg, transmission


def check_gamma_closed_form(n_instances: int = 200, seed: int = 11,
                            grid_points: int = GRID_POINTS) -> CheckResult:
    """CPU-fraction closed form vs a constrained grid search."""
    rng = np.random.default_rng(seed)
    step = 1.0 / (grid_points - 1)
    worst_gap = worst_energy = 0.0
    interior = 0
    for _ in range(n_instances):
        pop, alloc, dim, cfg, transmission = random_gamma_instance(rng)
        (solved,), (exhausted,) = solve_gamma(pop, alloc, dim, cfg)
        if exhausted:
            return CheckResult("gamma-closed-form", False, "unexpected exhausted budget")
        (data,) = (1.0 - alloc.delta[0]) * costs.dataset_bytes(pop, cfg)
        cpu, budget = pop.cpu_hz[0], pop.energy_budget[0]

        def time_of(g, data=data, cpu=cpu, cfg=cfg):
            return costs.training_time(data, cfg.cycles_per_byte, g, cpu)

        def feasible(g, data=data, cpu=cpu, budget=budget, cfg=cfg, tx=transmission):
            energy = costs.training_energy(cfg.chip_capacitance, data,
                                           cfg.cycles_per_byte, g, cpu)
            return energy + tx <= budget

        grid_best, _ = grid_minimize(time_of, 0.0, 1.0, grid_points, feasible)
        worst_gap = max(worst_gap, abs(solved - grid_best))
        if 0.0 < solved < 1.0:
            interior += 1
            (spent,) = costs.total_energy(pop, replace(alloc, gamma=[solved]), dim, cfg)
            worst_energy = max(worst_energy, abs(spent - budget) / budget)
    passed = worst_gap <= step + 1e-12 and worst_energy <= ENERGY_RTOL and interior > 0
    return CheckResult(
        "gamma-closed-form", passed,
        f"{n_instances} instances ({interior} interior): max |gap|={worst_gap:.3g} "
        f"(grid step {step:.1g}), max budget mismatch={worst_energy:.3g}",
    )


def random_delta_instance(rng):
    cfg = SystemConfig()
    pop = _random_population(rng, 3)
    shares_off = rng.dirichlet(np.ones(3)) * rng.uniform(0.7, 1.0)
    shares_up = rng.dirichlet(np.ones(3)) * rng.uniform(0.7, 1.0)
    alloc = AllocationState(
        delta=rng.uniform(0.05, 0.95, 3),
        gamma=rng.uniform(0.2, 1.0, 3),
        uplink_offload=shares_off,
        uplink_weight=shares_up,
        lambda_offload=np.full(3, 0.5),
        lambda_local=np.full(3, 0.5),
    )
    dim = int(rng.integers(100, 8001))
    return pop, alloc, dim, cfg


def _reordered(obj, order):
    """A Population or AllocationState with its users taken in ``order``."""
    return replace(obj, **{f.name: getattr(obj, f.name)[order] for f in fields(obj)})


def check_delta_closed_form(n_instances: int = 200, seed: int = 23) -> CheckResult:
    """Offload-fraction closed form vs bisection on the time imbalance.

    The sweep is ordered with the target user first, so its answer is the
    one-player closed form against the others' previous fractions.
    """
    rng = np.random.default_rng(seed)
    target, order = 1, [1, 0, 2]
    worst_gap = worst_balance = 0.0
    interior = 0
    for _ in range(n_instances):
        pop, alloc, dim, cfg = random_delta_instance(rng)
        solved = solve_delta(_reordered(pop, order), _reordered(alloc, order), dim, cfg)[0]

        def imbalance(d, pop=pop, alloc=alloc, dim=dim, cfg=cfg):
            delta = alloc.delta.copy()
            delta[target] = d
            state = replace(alloc, delta=delta)
            return (costs.local_time(pop, state, dim, cfg)
                    - costs.edge_time_user(pop, state, cfg))[target]

        lo, hi = imbalance(0.0), imbalance(1.0)
        if lo < 0.0:
            if solved != 0.0:
                return CheckResult("delta-closed-form", False,
                                   f"expected clamp at 0, got {solved}")
            continue
        if hi > 0.0:
            if solved != 1.0:
                return CheckResult("delta-closed-form", False,
                                   f"expected clamp at 1, got {solved}")
            continue
        root = bisect_root(imbalance, 0.0, 1.0, 1e-12)
        worst_gap = max(worst_gap, abs(solved - root))
        if 0.0 < solved < 1.0:
            interior += 1
            state = replace(alloc, delta=np.where(np.arange(3) == target, solved, alloc.delta))
            t_loc = costs.local_time(pop, state, dim, cfg)[target]
            t_edge = costs.edge_time_user(pop, state, cfg)[target]
            worst_balance = max(worst_balance,
                                abs(t_loc - t_edge) / max(t_loc, t_edge))
    passed = (worst_gap <= DELTA_MATCH_TOL and worst_balance <= BALANCE_RTOL
              and interior > 0)
    return CheckResult(
        "delta-closed-form", passed,
        f"{n_instances} instances ({interior} interior): max |gap|={worst_gap:.3g}, "
        f"max time imbalance={worst_balance:.3g}",
    )


def random_uplink_instance(rng):
    """Two-user instance whose multipliers encode the max-time optimum."""
    cfg = SystemConfig()
    pop = _random_population(rng, 2)
    dim = int(rng.integers(100, 8001))
    delta = rng.uniform(0.2, 0.9, 2)
    rates, data, cpu = base_rate(pop, cfg), costs.dataset_bytes(pop, cfg), pop.cpu_hz
    # One shared local-compute time makes the upload-side optimum purely
    # proportional; gamma realizes it.
    compute_floor = (1.0 - delta) * data * cfg.cycles_per_byte / cpu
    common_time = compute_floor.max() / rng.uniform(0.3, 0.95)
    gamma = (1.0 - delta) * data * cfg.cycles_per_byte / (common_time * cpu)
    offload_load = delta * data / rates
    upload_load = costs.weights_bytes(dim, cfg) / rates
    alloc = AllocationState(
        delta=delta,
        gamma=gamma,
        uplink_offload=np.full(2, 0.5),
        uplink_weight=np.full(2, 0.5),
        lambda_offload=offload_load / offload_load.sum(),
        lambda_local=upload_load / upload_load.sum(),
    )
    return pop, alloc, dim, cfg


def check_uplink_closed_form(n_instances: int = 50, seed: int = 37,
                             resolution: float = SIMPLEX_RESOLUTION) -> CheckResult:
    """Bandwidth-share closed form vs the exhaustive simplex search."""
    rng = np.random.default_rng(seed)
    worst_gap = worst_sum = 0.0
    for _ in range(n_instances):
        pop, alloc, dim, cfg = random_uplink_instance(rng)
        closed_off, closed_up = solve_uplink(pop, alloc, dim, cfg)
        oracle_off, oracle_up = simplex_minimize_maxtime(pop, alloc, dim, cfg, resolution)
        worst_gap = max(
            worst_gap,
            float(np.abs(closed_off - oracle_off).max()),
            float(np.abs(closed_up - oracle_up).max()),
        )
        worst_sum = max(worst_sum, abs(closed_off.sum() - 1.0), abs(closed_up.sum() - 1.0))
    passed = worst_gap <= resolution + 1e-12 and worst_sum <= SIMPLEX_SUM_TOL
    return CheckResult(
        "uplink-closed-form", passed,
        f"{n_instances} instances: max share gap={worst_gap:.3g} "
        f"(resolution {resolution:g}), max |sum-1|={worst_sum:.3g}",
    )


def _curvature_instance(rng):
    cfg = SystemConfig()
    pop = _random_population(rng, 1)
    alloc = AllocationState(
        delta=[float(rng.uniform(0.1, 0.9))],
        gamma=[float(rng.uniform(0.05, 0.95))],
        uplink_offload=[float(rng.uniform(0.05, 0.95))],
        uplink_weight=[float(rng.uniform(0.05, 0.95))],
        lambda_offload=[0.5],
        lambda_local=[0.5],
    )
    dim = int(rng.integers(100, 8001))
    return pop, alloc, dim, cfg


def _analytic_first_derivatives(pop, alloc, dim, cfg):
    """Hand-coded first derivatives of user 0, used as the sign reference."""
    (rate,), (data,) = base_rate(pop, cfg).tolist(), costs.dataset_bytes(pop, cfg).tolist()
    weights = costs.weights_bytes(dim, cfg)
    delta, gamma = alloc.delta[0], alloc.gamma[0]
    off, up = alloc.uplink_offload[0], alloc.uplink_weight[0]
    (p,), (cpu,), tau = pop.transmit_power.tolist(), pop.cpu_hz.tolist(), cfg.cycles_per_byte
    return {
        ("energy", "gamma"): 2.0 * cfg.chip_capacitance * (1.0 - delta) * data * tau
                             * gamma * cpu ** 2,
        ("energy", "uplink_offload"): -8.0 * p * delta * data / (off ** 2 * rate),
        ("energy", "uplink_weight"): -8.0 * p * weights / (up ** 2 * rate),
        ("local_time", "gamma"): -(1.0 - delta) * data * tau / (gamma ** 2 * cpu),
        ("local_time", "uplink_weight"): -8.0 * weights / (up ** 2 * rate),
    }


def check_curvature_and_monotonicity(points_per_pair: int = 1000, seed: int = 41) -> CheckResult:
    """Finite-difference convexity and first-derivative signs of the costs."""
    rng = np.random.default_rng(seed)
    pairs = list(_analytic_first_derivatives(*_curvature_instance(rng)).keys())
    min_fd2 = np.inf
    for quantity, variable in pairs:
        for _ in range(points_per_pair):
            pop, alloc, dim, cfg = _curvature_instance(rng)
            reference = _analytic_first_derivatives(pop, alloc, dim, cfg)[(quantity, variable)]
            cost = costs.total_energy if quantity == "energy" else costs.local_time

            def evaluate(xs, variable=variable, cost=cost, pop=pop, alloc=alloc, dim=dim, cfg=cfg):
                # one candidate allocation per stencil point, as one stack
                return cost(pop, replace(alloc, **{variable: xs[:, None]}), dim, cfg)[:, 0]

            x0 = float(getattr(alloc, variable)[0])
            fd1 = finite_diff(evaluate, x0, 1, FD_STEP_FIRST)
            if abs(fd1) <= SIGN_MARGIN or np.sign(fd1) != np.sign(reference):
                return CheckResult(
                    "curvature-monotonicity", False,
                    f"sign mismatch for d({quantity})/d({variable}): "
                    f"fd={fd1:.3g}, analytic={reference:.3g}",
                )
            fd2 = finite_diff(evaluate, x0, 2, FD_STEP_SECOND)
            min_fd2 = min(min_fd2, fd2)
            if fd2 < CURVATURE_FLOOR:
                return CheckResult(
                    "curvature-monotonicity", False,
                    f"negative curvature for {quantity} in {variable}: {fd2:.3g}",
                )
    return CheckResult(
        "curvature-monotonicity", True,
        f"{len(pairs)} derivative pairs x {points_per_pair} points: "
        f"signs match, min curvature {min_fd2:.3g}",
    )


def run_all(fast: bool = False) -> list[CheckResult]:
    """Run every closed-form-vs-oracle check; ``fast`` shrinks the counts."""
    scale = 10 if fast else 1
    return [
        check_gamma_closed_form(n_instances=200 // scale),
        check_delta_closed_form(n_instances=200 // scale),
        check_uplink_closed_form(n_instances=50 // scale),
        check_curvature_and_monotonicity(points_per_pair=1000 // scale),
    ]
