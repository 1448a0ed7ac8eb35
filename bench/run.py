"""Run one workload of the mecfl benchmark and print its metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload mid --seed 7 --seconds 20 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``. The
line before it records the run's details and environment. Exits 2 when the
checkout holds no mecfl sources, and 1 when the benchmark cannot run.
"""

import argparse
import json
import sys

import env

env.pin_thread_pools()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    try:
        env.use_checkout_source()
    except (env.MissingSource, ImportError) as exc:
        print(f"bench: cannot import mecfl from this checkout: {exc}", file=sys.stderr)
        return 2
    import harness

    workload = harness.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(harness.WORKLOADS)}")
    try:
        result, detail = harness.measure(workload, args.seed, args.seconds, bool(args.trace))
    except harness.BenchmarkError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(detail))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
