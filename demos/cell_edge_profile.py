"""How the equilibrium treats a cell-center vs a cell-edge user.

Two identical users except for a 100x channel-gain gap. The poorly
connected user ends up offloading a smaller slice of its dataset while
receiving larger shares of both uplink phases; its bandwidth is the
bottleneck the allocation works around.

    python3 demos/cell_edge_profile.py
"""

import numpy as np

from mecfl import io
from mecfl.orchestrator import run_proposed
from mecfl.types import Population, SystemConfig

cfg = SystemConfig(learning_rate=0.5, local_epochs=10, rng_seed=5)
pool = io.synthesize_dataset(400, 16, 4, seed=42, separation=8.0)
datasets = [pool.take(np.arange(0, 200)), pool.take(np.arange(200, 400))]
test = io.synthesize_dataset(200, 16, 4, seed=43, separation=8.0)
pop = Population(transmit_power=[0.2, 0.2], channel_gain=[1e-6, 1e-8], cpu_hz=[1.35e9, 1.35e9],
                 energy_budget=[50.0, 50.0], dataset_size=[200, 200])

result = run_proposed(pop, datasets, cfg, 100, test_dataset=test)
alloc = result.alloc_trace[-1]

print(f"converged after {result.iterations_used} rounds\n")
print(f"{'':>22} {'cell-center':>12} {'cell-edge':>12}")
print(f"{'channel gain':>22} {pop.channel_gain[0]:12.1e} {pop.channel_gain[1]:12.1e}")
print(f"{'offloaded fraction':>22} {alloc.delta[0]:12.3f} {alloc.delta[1]:12.3f}")
print(f"{'offload share':>22} {alloc.uplink_offload[0]:12.3f} {alloc.uplink_offload[1]:12.3f}")
print(f"{'upload share':>22} {alloc.uplink_weight[0]:12.3f} {alloc.uplink_weight[1]:12.3f}")
last = result.trace[-1]
print(f"{'local path time (s)':>22} {last.t_local[0]:12.6f} {last.t_local[1]:12.6f}")
print(f"{'energy spent (J)':>22} {last.e_total[0]:12.4f} {last.e_total[1]:12.4f}")
