"""Sweep the offload fraction with a frozen uniform allocation.

Reproduces the classic trade-off: pooling more data at the edge improves
the final model (test loss falls with the offloaded fraction) but the
dataset uploads dominate the round time, so time grows with it. The
delta=0 column is plain federated training, delta=1 is fully centralized.

    python3 demos/offload_sweep.py [out.csv]
"""

import argparse

from mecfl import io
from mecfl.types import SystemConfig

parser = argparse.ArgumentParser(description="Sweep the offload fraction on a frozen allocation.")
parser.add_argument("csv_path", nargs="?", help="also write the sweep rows to this CSV file")
args = parser.parse_args()

spec = io.ExperimentSpec(
    scenario="sweep_offload",
    seed=1,
    class_separation=8.0,
    system=SystemConfig(learning_rate=0.5, local_epochs=10),
)
rows = io.run_sweep(spec)

print(f"{'delta':>6} {'test loss':>10} {'round time':>11} {'t_local center':>15} "
      f"{'t_local edge':>13}")
for row in rows:
    print(f"{row['value']:6.1f} {row['test_loss']:10.5f} {row['t_total']:11.6f} "
          f"{row['t_local_center']:15.6f} {row['t_local_celledge']:13.6f}")

if args.csv_path:
    io.write_sweep_csv(args.csv_path, rows)
    print(f"\nwritten to {args.csv_path}")
