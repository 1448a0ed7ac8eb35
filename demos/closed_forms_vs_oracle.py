"""Certify the three closed-form best responses on one instance each.

Every closed form the simulator uses is checked against a dumb numeric
method that knows nothing about the derivation: bisection on the energy
budget for the CPU fraction (energy rises with it, so the budget-bound
answer is the root of energy = budget), cross-checked by a 1,001-point
constrained grid search, bisection on each user's time imbalance, the
other users at the equilibrium, for the offload fractions, and an
exhaustive simplex search for the bandwidth shares.

    python3 demos/closed_forms_vs_oracle.py
"""

import numpy as np
from dataclasses import replace

from mecfl import costs, verify
from mecfl.oracle import bisect_root, grid_minimize, simplex_minimize_maxtime
from mecfl.optimizer import solve_delta, solve_gamma, solve_uplink

rng = np.random.default_rng(2024)

# verify draws its instances as stacks, one draw per field for all of them:
# fields shaped (instances, users) and one weight dimension per instance; here
# each stack holds one instance. The oracles take such stacks whole, so one
# call certifies every instance; this demo picks out its one instance.

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

# --- offload fractions: balance each user's local and edge completion times
pop, alloc, dims, cfg = verify.random_delta_instances(rng, 1)
pop, alloc, dim = verify.instance(pop, 0), verify.instance(alloc, 0), int(dims[0, 0])

# The equilibrium: every user's fraction is its best response to the others'.
delta = solve_delta(pop, alloc, dim, cfg)
equilibrium = replace(alloc, delta=delta)


def imbalance(d, user):
    state = replace(equilibrium, delta=np.where(np.arange(3) == user, d, delta))
    return (costs.local_time(pop, state, dim, cfg)
            - costs.edge_time_user(pop, state, cfg))[user]


print("offload fraction")
for user, d in enumerate(delta.tolist()):
    # a fraction at a bound is a best response when the imbalance there points past it
    root = (0.0 if imbalance(0.0, user) < 0.0 else 1.0 if imbalance(1.0, user) > 0.0
            else bisect_root(lambda x: imbalance(x, user), 0.0, 1.0, 1e-12))
    print(f"  user {user}: closed form {d:.10f}   bisection {root:.10f}   gap {abs(d - root):.2e}")

# --- bandwidth shares: minimize the slowest per-user completion time ------
pop, alloc, dims, cfg = verify.random_uplink_instances(rng, 1)
pop, alloc, dim = verify.instance(pop, 0), verify.instance(alloc, 0), int(dims[0, 0])
closed_off, closed_up = solve_uplink(pop, alloc, dim, cfg)
oracle_off, oracle_up = simplex_minimize_maxtime(pop, alloc, dim, cfg, 1e-3)
print("bandwidth shares (offload side, then upload side)")
print(f"  closed form {np.round(closed_off, 4)}   exhaustive {oracle_off}")
print(f"  closed form {np.round(closed_up, 4)}   exhaustive {oracle_up}")
