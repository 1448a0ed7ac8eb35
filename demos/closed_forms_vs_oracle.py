"""Certify the three closed-form best responses on one instance each.

Every closed form the simulator uses is checked against a dumb numeric
method that knows nothing about the derivation: a constrained grid search
for the CPU fraction, bisection on the time imbalance for the offload
fraction, and an exhaustive simplex search for the bandwidth shares.

    python3 demos/closed_forms_vs_oracle.py
"""

import numpy as np
from dataclasses import fields, replace

from mecfl import costs, verify
from mecfl.oracle import bisect_root, grid_minimize, simplex_minimize_maxtime
from mecfl.optimizer import solve_delta, solve_gamma, solve_uplink

rng = np.random.default_rng(2024)

# --- CPU fraction: minimize local time subject to the energy budget -------
pop, alloc, dim, cfg, transmission = verify.random_gamma_instance(rng)
(gamma,), _ = solve_gamma(pop, alloc, dim, cfg)
(data,) = (1.0 - alloc.delta[0]) * costs.dataset_bytes(pop, cfg)
cpu, budget = pop.cpu_hz[0], pop.energy_budget[0]
grid_gamma, _ = grid_minimize(
    lambda g: costs.training_time(data, cfg.cycles_per_byte, g, cpu),
    0.0, 1.0, 10**6,
    lambda g: costs.training_energy(cfg.chip_capacitance, data, cfg.cycles_per_byte,
                                    g, cpu) + transmission <= budget,
)
print("CPU fraction")
print(f"  closed form {gamma:.8f}   grid search {grid_gamma:.8f}   "
      f"gap {abs(gamma - grid_gamma):.2e}")

# --- offload fraction: balance the local and edge completion times --------
pop, alloc, dim, cfg = verify.random_delta_instance(rng)


def user_1_first(obj):
    """The instance's arrays in the order [1, 0, 2]."""
    return replace(obj, **{f.name: getattr(obj, f.name)[[1, 0, 2]] for f in fields(obj)})


# The first user of the sweep answers the others' previous fractions.
delta = solve_delta(user_1_first(pop), user_1_first(alloc), dim, cfg)[0]


def imbalance(d):
    state = replace(alloc, delta=np.where(np.arange(3) == 1, d, alloc.delta))
    return (costs.local_time(pop, state, dim, cfg)
            - costs.edge_time_user(pop, state, cfg))[1]


root = bisect_root(imbalance, 0.0, 1.0, 1e-12)
print("offload fraction")
print(f"  closed form {delta:.10f}   bisection {root:.10f}   gap {abs(delta - root):.2e}")

# --- bandwidth shares: minimize the slowest per-user completion time ------
pop, alloc, dim, cfg = verify.random_uplink_instance(rng)
closed_off, closed_up = solve_uplink(pop, alloc, dim, cfg)
oracle_off, oracle_up = simplex_minimize_maxtime(pop, alloc, dim, cfg, 1e-3)
print("bandwidth shares (offload side, then upload side)")
print(f"  closed form {np.round(closed_off, 4)}   exhaustive {oracle_off}")
print(f"  closed form {np.round(closed_up, 4)}   exhaustive {oracle_up}")
