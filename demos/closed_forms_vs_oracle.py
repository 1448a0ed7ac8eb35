"""Certify the three closed-form best responses on one instance each.

Every closed form the simulator uses is checked against a dumb numeric
method that knows nothing about the derivation: bisection on the energy
budget for the CPU fraction (energy rises with it, so the budget-bound
answer is the root of energy = budget), cross-checked by a 1,001-point
constrained grid search, bisection on the time imbalance for the offload
fraction, and an exhaustive simplex search for the bandwidth shares.

    python3 demos/closed_forms_vs_oracle.py
"""

import numpy as np
from dataclasses import replace

from mecfl import costs, verify
from mecfl.oracle import bisect_root, grid_minimize, simplex_minimize_maxtime
from mecfl.optimizer import solve_delta, solve_gamma, solve_uplink

rng = np.random.default_rng(2024)

# verify draws its instances as stacks: fields shaped (instances, users) and
# one weight dimension per instance; here each stack holds one instance.

# --- CPU fraction: minimize local time subject to the energy budget -------
pop, alloc, dims, cfg, transmission = verify.random_gamma_instances(rng, 1)
gamma = solve_gamma(pop, alloc, dims, cfg)[0][0, 0]
data = ((1.0 - alloc.delta) * costs.dataset_bytes(pop, cfg))[0, 0]
cpu, budget, tx = pop.cpu_hz[0, 0], pop.energy_budget[0, 0], transmission[0, 0]


def energy(g):
    return costs.training_energy(cfg.chip_capacitance, data, cfg.cycles_per_byte, g, cpu) + tx


# all of the budget is spent, unless it affords the whole CPU
root = 1.0 if energy(1.0) <= budget else bisect_root(lambda g: energy(g) - budget,
                                                     0.0, 1.0, 1e-15)
grid_gamma, _ = grid_minimize(lambda g: costs.training_time(data, cfg.cycles_per_byte, g, cpu),
                              0.0, 1.0, verify.GRID_POINTS, lambda g: energy(g) <= budget)
print("CPU fraction")
print(f"  closed form {gamma:.10f}   bisection {root:.10f}   gap {abs(gamma - root):.2e}")
print(f"  closed form {gamma:.10f}   grid search {grid_gamma:.10f}   "
      f"gap {abs(gamma - grid_gamma):.2e} (step {1 / (verify.GRID_POINTS - 1):g})")

# --- offload fraction: balance the local and edge completion times --------
pop, alloc, dims, cfg = verify.random_delta_instances(rng, 1)
pop, alloc, dim = verify.instance(pop, 0), verify.instance(alloc, 0), int(dims[0, 0])

# The first user of the sweep answers the others' previous fractions.
user_1_first = [1, 0, 2]
delta = solve_delta(verify.instance(pop, user_1_first), verify.instance(alloc, user_1_first),
                    dim, cfg)[0]


def imbalance(d):
    state = replace(alloc, delta=np.where(np.arange(3) == 1, d, alloc.delta))
    return (costs.local_time(pop, state, dim, cfg)
            - costs.edge_time_user(pop, state, cfg))[1]


root = bisect_root(imbalance, 0.0, 1.0, 1e-12)
print("offload fraction")
print(f"  closed form {delta:.10f}   bisection {root:.10f}   gap {abs(delta - root):.2e}")

# --- bandwidth shares: minimize the slowest per-user completion time ------
pop, alloc, dims, cfg = verify.random_uplink_instances(rng, 1)
pop, alloc, dim = verify.instance(pop, 0), verify.instance(alloc, 0), int(dims[0, 0])
closed_off, closed_up = solve_uplink(pop, alloc, dim, cfg)
oracle_off, oracle_up = simplex_minimize_maxtime(pop, alloc, dim, cfg, 1e-3)
print("bandwidth shares (offload side, then upload side)")
print(f"  closed form {np.round(closed_off, 4)}   exhaustive {oracle_off}")
print(f"  closed form {np.round(closed_up, 4)}   exhaustive {oracle_up}")
