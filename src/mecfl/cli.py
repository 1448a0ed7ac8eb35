"""Command-line interface: run one scenario, sweep a knob, or verify oracles."""

from __future__ import annotations

import argparse
import os
import sys
from dataclasses import replace
from pathlib import Path

from . import io
from .errors import SimulationError, ValidationError
from .verify import run_all


def _add_common_flags(parser):
    parser.add_argument("--config", help="experiment config file (flat key = value)")
    parser.add_argument("--seed", type=int, help="override the experiment seed")
    parser.add_argument("--users", type=int, help="override the user count")
    parser.add_argument("--out", help="CSV output path")
    parser.add_argument("--scenario", help="scenario to run")


def _build_spec(args, default_scenario: str) -> io.ExperimentSpec:
    spec = (io.parse_config(Path(args.config).read_text(encoding="utf-8")) if args.config
            else io.ExperimentSpec())
    overrides = {}
    if args.scenario:
        overrides["scenario"] = args.scenario
    elif args.config is None:
        overrides["scenario"] = default_scenario
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.users is not None:
        overrides["user_count"] = args.users
    if getattr(args, "max_iter", None) is not None:
        overrides["max_iterations"] = args.max_iter
    return replace(spec, **overrides) if overrides else spec


def _prepare(args, default_scenario: str, scenarios: tuple[str, ...]) -> io.ExperimentSpec:
    """The spec, once its scenario is one of ``scenarios``, ``--config`` is read,
    the spec's IDX files can be read and ``--out`` and ``--trace`` written.

    All of it is checked before any simulation starts, so a refused value costs
    no run: an ``OSError`` is reported as a usage error, as main reports a
    ``ValidationError``. An output file that did not exist is removed again once
    it has been created, so a run that fails leaves none behind.
    """
    try:
        spec = _build_spec(args, default_scenario)
        if spec.scenario not in scenarios:
            raise ValidationError(f"cannot handle scenario {spec.scenario!r}")
        idx_inputs = (spec.idx_images, spec.idx_labels, spec.idx_test_images, spec.idx_test_labels)
        for path in (p for p in idx_inputs if p is not None):
            open(path, "rb").close()
        for path in filter(None, (args.out, getattr(args, "trace", None))):
            created = not os.path.exists(path)
            # append mode: an existing file keeps its bytes until the run is done
            open(path, "a", encoding="utf-8").close()
            if created:
                os.remove(path)
    except OSError as err:
        args.error(str(err))
    return spec


def _cmd_run(args) -> int:
    spec = _prepare(args, "proposed", io.RUN_SCENARIOS)
    result = io.run_experiment(spec)
    if args.out:
        io.write_metrics_csv(args.out, result)
    if args.trace:
        io.write_alloc_trace(args.trace, result)
    last = result.trace[-1]
    status = "converged" if result.converged else "not converged"
    print(f"{spec.scenario}: {status} after {result.iterations_used} iterations")
    print(f"  test loss {last.test_loss:.6f}  round time {last.t_total:.6f} s  "
          f"weighted score {last.weighted_score:.6f}")
    if args.out:
        print(f"  metrics written to {args.out}")
    return 0


def _cmd_sweep(args) -> int:
    spec = _prepare(args, "sweep_offload", io.SWEEP_SCENARIOS)
    rows = io.run_sweep(spec)
    if args.out:
        io.write_sweep_csv(args.out, rows)
        print(f"{spec.scenario}: {len(rows)} rows written to {args.out}")
    else:
        for row in rows:
            print(f"  value {row['value']:.2f}  test loss {row['test_loss']:.6f}  "
                  f"round time {row['t_total']:.6f} s")
    return 0


def _cmd_verify(args) -> int:
    results = run_all(fast=args.fast)
    failures = 0
    for check in results:
        flag = "PASS" if check.passed else "FAIL"
        print(f"[{flag}] {check.name}: {check.detail}")
        failures += 0 if check.passed else 1
    return 1 if failures else 0


def _parser() -> argparse.ArgumentParser:
    """The mecfl parser; a subcommand's arguments carry its handler and its parser's ``error``."""
    parser = argparse.ArgumentParser(
        prog="mecfl",
        description="Simulator of edge-assisted federated learning with "
                    "energy-aware resource management.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run_parser = sub.add_parser("run", help="run one scenario")
    _add_common_flags(run_parser)
    run_parser.add_argument("--max-iter", type=int, help="override the iteration cap")
    run_parser.add_argument("--trace", help="JSON-lines allocation trace path")
    run_parser.set_defaults(handler=_cmd_run, error=run_parser.error)

    sweep_parser = sub.add_parser("sweep", help="sweep the offload or CPU fraction")
    _add_common_flags(sweep_parser)
    sweep_parser.set_defaults(handler=_cmd_sweep, error=sweep_parser.error)

    verify_parser = sub.add_parser("verify", help="check closed forms against oracles")
    verify_parser.add_argument("--fast", action="store_true",
                               help="run a tenth of the usual instance counts")
    verify_parser.set_defaults(handler=_cmd_verify, error=verify_parser.error)
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ValidationError as err:
        # a bad option or config value: argparse's usage and the message, exit status 2
        args.error(str(err))
    except SimulationError as err:
        # the run itself broke down: the message alone, exit status 1
        print(f"mecfl {args.command}: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
