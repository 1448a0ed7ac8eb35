"""Watch the joint training / resource-management loop converge.

Runs the adaptive scenario and the no-offloading baseline on the same
desk-scale population, then prints the per-round test loss and round time
side by side. The adaptive run should settle within a few dozen rounds at
a round time below the baseline while keeping every user inside its
energy budget.

    python3 demos/convergence_run.py
"""

from mecfl import io
from mecfl.orchestrator import run_proposed, run_traditional
from mecfl.types import SystemConfig

spec = io.ExperimentSpec(
    seed=7,
    class_separation=8.0,
    system=SystemConfig(learning_rate=0.5, local_epochs=10),
)
pop, datasets = io.synthesize_users(spec)
test = io.load_test_dataset(spec)
cfg = io.effective_config(spec)

proposed = run_proposed(pop, datasets, cfg, spec.max_iterations, test_dataset=test)
baseline = run_traditional(pop, datasets, cfg, spec.max_iterations, test_dataset=test)

print(f"{'round':>5} {'loss (adaptive)':>16} {'time (adaptive)':>16} "
      f"{'loss (baseline)':>16} {'time (baseline)':>16}")
rounds = max(len(proposed.trace), len(baseline.trace))
for k in range(rounds):
    row = [f"{k:5d}"]
    for result in (proposed, baseline):
        if k < len(result.trace):
            m = result.trace[k]
            row.append(f"{m.test_loss:16.5f} {m.t_total:16.6f}")
        else:
            row.append(" " * 33)
    print(" ".join(row))

last = proposed.trace[-1]
print()
print(f"adaptive run: converged={proposed.converged} after {proposed.iterations_used} rounds")
print(f"final round time {last.t_total:.6f} s vs baseline {baseline.trace[-1].t_total:.6f} s")
budget_ok = all(last.e_total <= pop.energy_budget)
print(f"all users within their energy budgets: {budget_ok}")
print(f"final offload fractions: {[round(float(d), 3) for d in proposed.alloc_trace[-1].delta]}")
