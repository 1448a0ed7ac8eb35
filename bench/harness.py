"""Workloads, output checks, timing and metrics of the mecfl benchmark.

The benchmark drives mecfl's public API from one thread of one process, as
a closed loop with one caller: each run starts when the previous one has
returned. Every workload runs a fixed number of rounds
(``stop_on_convergence=False``), so a change to the stop rule cannot pass
for a speed-up.

End-to-end metrics come from untraced runs, with host times scaled to a
reference CPU speed (see ``HostSpeed``). Per-layer metrics come from a
separate traced run (see ``tracer``); the difference between the two run
times is reported as the tracing overhead. The only probe in an untraced
run is a timestamp after each ``aggregate`` call, which marks the end of a
round: a window between two marks holds one whole round, including the
metric evaluation of the round before it.
"""

from __future__ import annotations

import hashlib
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field

import numpy as np
import scipy

import env
from mecfl import io, orchestrator, verify
from mecfl.errors import ValidationError
from mecfl.types import validate_allocation  # the original, bound before any hook
from tracer import Patches, Tracer

perf_counter = time.perf_counter

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
SWEEP_GRID = [round(0.1 * k, 1) for k in range(11)]
AGGREGATE_SITE = ("mecfl.orchestrator", "aggregate")
SWEEP_RUN_SITE = ("mecfl.io", "run_proposed")
SOLVE_DELTA_SITE = ("mecfl.orchestrator", "solve_delta")

END_TO_END_UNITS = {
    "setup_s": "s",
    "run_s": "s",
    "round_ms_p50": "ms",
    "peak_rss_mb": "MB",
    "final_test_loss": "mse",
}

PER_LAYER_UNITS = {
    "learning.train.local.calls": "count",
    "learning.train.local.s": "s",
    "learning.train.edge.calls": "count",
    "learning.train.edge.s": "s",
    "learning.sgd_steps": "count",
    "learning.dataset_objects": "count",
    "learning.split_dataset.s": "s",
    "learning.concat_datasets.s": "s",
    "learning.shuffle_dataset.s": "s",
    "learning.evaluate_loss.s": "s",
    "learning.aggregate.s": "s",
    "optimizer.solve_gamma.calls": "count",
    "optimizer.solve_gamma.s": "s",
    "optimizer.solve_delta.calls": "count",
    "optimizer.solve_delta.s": "s",
    "optimizer.solve_delta.us_per_call": "us",
    "optimizer.solve_uplink.s": "s",
    "optimizer.update_multipliers.s": "s",
    "optimizer.forced_share": "share",
    "types.validate_allocation.calls": "count",
    "types.validate_allocation.s": "s",
    "link.base_rate.calls": "count",
    "link.base_rate.s": "s",
    "costs.local_time.calls": "count",
    "costs.total_energy.calls": "count",
    "costs.edge_time_total.calls": "count",
    "costs.s": "s",
    "io.synthesize_users.s": "s",
    "io.load_test_dataset.s": "s",
    "io.write_metrics_csv.s": "s",
    "io.write_alloc_trace.s": "s",
    "io.trace_bytes": "bytes",
    "verify.check_gamma.s": "s",
    "verify.check_delta.s": "s",
    "verify.check_uplink.s": "s",
    "verify.check_curvature.s": "s",
    "oracle.grid_minimize.calls": "count",
    "oracle.grid_minimize.s": "s",
    "oracle.simplex_minimize_maxtime.s": "s",
    "oracle.bisect_root.calls": "count",
    "oracle.finite_diff.calls": "count",
    "orchestrator.self_s": "s",
    "trace.overhead_s": "s",
    "sim_round_s": "s",
}


@dataclass(frozen=True)
class Workload:
    """One named input set.

    ``kind`` is "proposed" (one ``run_proposed`` call), "sweep_offload"
    (``io.run_sweep`` over the 11-point offload grid, ``rounds`` rounds per
    point) or "verify" (``verify.run_all(fast=True)``, then a proposed run
    of the given population, as ``mecfl verify --fast`` followed by
    ``mecfl run``).
    """

    name: str
    kind: str
    users: int
    samples_per_user: int
    rounds: int
    write_outputs: bool = False

    @property
    def adapting_rounds(self) -> int:
        return 0 if self.kind == "sweep_offload" else self.rounds - 1


# Why each workload: mid is dominated by local SGD; wide by the O(n^2)
# best-response sweep, per-user scalar calls, per-call SGD overhead and the
# trace writers; sweep_offload freezes the allocation (no optimizer calls)
# and trains mostly at the edge on a few large pooled sets; verify measures
# the oracle and verify layers and the per-call cost of the closed forms on
# tiny instances.
WORKLOADS = {w.name: w for w in (
    Workload("mid", "proposed", users=50, samples_per_user=1200, rounds=10),
    Workload("wide", "proposed", users=800, samples_per_user=50, rounds=6, write_outputs=True),
    Workload("sweep_offload", "sweep_offload", users=10, samples_per_user=600, rounds=12),
    Workload("verify", "verify", users=10, samples_per_user=200, rounds=10),
)}


class BenchmarkError(RuntimeError):
    """The benchmark cannot run at all (as opposed to one failed run)."""


@dataclass
class RunRecord:
    """One observed ``run_proposed`` call."""

    start: float
    round_ends: list = field(default_factory=list)
    trained: list = field(default_factory=list)   # local + edge trainset sizes per round
    result: object = None


class RunRecorder:
    """Observes ``run_proposed`` calls and the round ends inside them."""

    def __init__(self):
        self.records: list[RunRecord] = []

    def observe(self, run_proposed):
        def wrapper(*args, **kwargs):
            record = RunRecord(start=perf_counter())
            self.records.append(record)
            record.result = run_proposed(*args, **kwargs)
            return record.result
        return wrapper

    def after_aggregate(self, aggregate):
        def wrapper(model, *args, **kwargs):
            weights = aggregate(model, *args, **kwargs)
            record = self.records[-1]
            record.round_ends.append(perf_counter())
            record.trained.append(int(model.local_trainset_sizes.sum())
                                  + int(model.edge_trainset_size))
            return weights
        return wrapper


@dataclass
class Outcome:
    """What one run produced, with the problems its checks found."""

    run_s: float
    round_s: list
    final_test_loss: float
    sim_round_s: float
    trace_bytes: int
    fingerprint: str
    problems: list
    child_s: float = 0.0          # traced runs: time inside top-level spans
    layers: dict = field(default_factory=dict)
    scale: float = 1.0            # host-speed factor, see HostSpeed


def _spec(wl: Workload, seed: int) -> io.ExperimentSpec:
    scenario = "sweep_offload" if wl.kind == "sweep_offload" else "proposed"
    return io.ExperimentSpec(scenario=scenario, user_count=wl.users,
                             samples_per_user=wl.samples_per_user, seed=seed,
                             sweep_rounds=wl.rounds)


def build_inputs(wl: Workload, seed: int):
    spec = _spec(wl, seed)
    users, datasets = io.synthesize_users(spec)
    return users, datasets, io.load_test_dataset(spec), io.effective_config(spec)


# --------------------------------------------------------------------------
# output checks and fingerprints
# --------------------------------------------------------------------------

def _check_record(record: RunRecord, wl: Workload, pool: int) -> list:
    result = record.result
    problems = []
    if len(result.trace) != wl.rounds or len(result.alloc_trace) != wl.rounds:
        problems.append(f"expected {wl.rounds} rounds, got {len(result.trace)}")
    if record.trained != [pool] * len(result.trace):
        problems.append(f"local plus edge trainset sizes {record.trained} != pool {pool}")
    for k, alloc in enumerate(result.alloc_trace):
        try:
            validate_allocation(alloc, wl.users)
        except ValidationError as exc:
            problems.append(f"alloc_trace[{k}]: {exc}")
    losses = [v for m in result.trace for v in (m.train_loss, m.test_loss)]
    if not all(math.isfinite(v) for v in losses):
        problems.append("non-finite loss")
    elif not result.trace[-1].test_loss < result.trace[0].test_loss:
        problems.append(f"final test loss {result.trace[-1].test_loss!r} is not below "
                        f"round 0's {result.trace[0].test_loss!r}")
    return problems


def _digest_result(h, result) -> None:
    for m in result.trace:
        h.update(repr((m.t_edge, m.t_total, m.train_loss, m.test_loss,
                       m.weighted_score)).encode())
        h.update(m.t_local.tobytes())
        h.update(m.e_total.tobytes())
    for alloc in result.alloc_trace:
        for name in ("delta", "gamma", "uplink_offload", "uplink_weight",
                     "lambda_offload", "lambda_local"):
            h.update(getattr(alloc, name).tobytes())
    model = result.final_model
    for arr in (model.local_weights, model.edge_weights, model.global_weights):
        h.update(arr.tobytes())
    h.update(repr((result.converged, result.iterations_used)).encode())


# --------------------------------------------------------------------------
# one run
# --------------------------------------------------------------------------

def run_once(wl: Workload, seed: int, inputs, workdir: str) -> Outcome:
    """Run the workload once, timed, then check and fingerprint its outputs."""
    recorder = RunRecorder()
    h = hashlib.sha256()
    trace_bytes = 0
    with Patches() as patches:
        if not patches.wrap(AGGREGATE_SITE, recorder.after_aggregate):
            raise BenchmarkError("cannot observe round ends: mecfl.orchestrator.aggregate is gone")
        if wl.kind == "sweep_offload" and not patches.wrap(SWEEP_RUN_SITE, recorder.observe):
            raise BenchmarkError("cannot observe sweep points: mecfl.io.run_proposed is gone")
        start = perf_counter()
        if wl.kind == "sweep_offload":
            rows = io.run_sweep(_spec(wl, seed))
        else:
            if wl.kind == "verify":
                checks = verify.run_all(fast=True)
            users, datasets, test, cfg = inputs
            result = recorder.observe(orchestrator.run_proposed)(
                users, datasets, cfg, wl.rounds, test_dataset=test, stop_on_convergence=False)
            if wl.write_outputs:
                paths = [os.path.join(workdir, "metrics.csv"), os.path.join(workdir, "alloc.jsonl")]
                io.write_metrics_csv(paths[0], result)
                io.write_alloc_trace(paths[1], result)
        run_s = perf_counter() - start

    problems = []
    pool = wl.users * wl.samples_per_user
    for record in recorder.records:
        problems += _check_record(record, wl, pool)
        _digest_result(h, record.result)
    if wl.kind == "sweep_offload":
        values = [row["value"] for row in rows]
        if values != SWEEP_GRID or len(recorder.records) != len(SWEEP_GRID):
            problems.append(f"sweep rows {values} are not the grid {SWEEP_GRID}")
        h.update(repr(rows).encode())
        final_test_loss = statistics.fmean(row["test_loss"] for row in rows)
        sim_round_s = statistics.fmean(row["t_total"] for row in rows)
    else:
        final_test_loss = result.trace[-1].test_loss
        sim_round_s = result.trace[-1].t_total
    if wl.kind == "verify":
        problems += [f"verify {c.name}: FAIL ({c.detail})" for c in checks if not c.passed]
        h.update(repr([(c.name, bool(c.passed), c.detail) for c in checks]).encode())
    if wl.write_outputs:
        for path in paths:
            with open(path, "rb") as handle:
                content = handle.read()
            trace_bytes += len(content)
            h.update(content)

    round_s = []
    for record in recorder.records:
        ends = [record.start] + record.round_ends
        windows = [b - a for a, b in zip(ends, ends[1:])]
        round_s += windows if wl.kind == "sweep_offload" else windows[1:]
    return Outcome(run_s=run_s, round_s=round_s, final_test_loss=final_test_loss,
                   sim_round_s=sim_round_s, trace_bytes=trace_bytes,
                   fingerprint=h.hexdigest(), problems=problems)


def traced_once(wl: Workload, seed: int, tracer: Tracer, workdir: str) -> Outcome:
    """One run under an installed tracer.

    Set-up runs in-process first; its spans are kept, and every other
    count covers the run alone. ``run_sweep`` synthesizes its own inputs,
    so for ``sweep_offload`` the set-up spans come from inside the run.
    """
    tracer.reset()
    inputs = None if wl.kind == "sweep_offload" else build_inputs(wl, seed)
    setup = {f"{name}.s": tracer.seconds(name)
             for name in ("io.synthesize_users", "io.load_test_dataset")}
    tracer.reset()
    outcome = run_once(wl, seed, inputs, workdir)
    outcome.child_s = tracer.top_level_s
    outcome.layers = layer_metrics(tracer, wl, outcome)
    if inputs is not None:
        outcome.layers.update(setup)
    return outcome


def layer_metrics(tracer: Tracer, wl: Workload, outcome: Outcome) -> dict:
    """Per-layer values of one traced run; ``None`` where a hook is absent."""
    m = {}
    for span in ("learning.train.local", "learning.train.edge", "optimizer.solve_gamma",
                 "optimizer.solve_delta", "types.validate_allocation", "link.base_rate",
                 "oracle.grid_minimize"):
        m[f"{span}.calls"] = tracer.calls(span)
        m[f"{span}.s"] = tracer.seconds(span)
    for span in ("learning.split_dataset", "learning.concat_datasets",
                 "learning.shuffle_dataset", "learning.evaluate_loss", "learning.aggregate",
                 "optimizer.solve_uplink", "optimizer.update_multipliers",
                 "io.synthesize_users", "io.load_test_dataset", "io.write_metrics_csv",
                 "io.write_alloc_trace", "verify.check_gamma", "verify.check_delta",
                 "verify.check_uplink", "verify.check_curvature",
                 "oracle.simplex_minimize_maxtime"):
        m[f"{span}.s"] = tracer.seconds(span)
    for span in ("costs.local_time", "costs.total_energy", "costs.edge_time_total",
                 "oracle.bisect_root", "oracle.finite_diff"):
        m[f"{span}.calls"] = tracer.calls(span)
    m["learning.sgd_steps"] = tracer.sgd_steps if tracer.present("learning.sgd_steps") else None
    m["learning.dataset_objects"] = (tracer.dataset_objects
                                     if tracer.present("learning.dataset_objects") else None)
    cost_spans = [tracer.seconds(s) for s in
                  ("costs.local_time", "costs.total_energy", "costs.edge_time_total")]
    m["costs.s"] = None if None in cost_spans else sum(cost_spans)

    calls, seconds = m["optimizer.solve_delta.calls"], m["optimizer.solve_delta.s"]
    m["optimizer.solve_delta.us_per_call"] = (
        None if calls is None else (1e6 * seconds / calls if calls else 0.0))
    decided = tracer.calls("optimizer.solve_delta", SOLVE_DELTA_SITE)
    slots = wl.users * wl.adapting_rounds
    # Users whose offload fraction the sweep forced to 0 or 1 skip solve_delta;
    # 0 where no round adapts.
    m["optimizer.forced_share"] = (None if decided is None
                                   else 1.0 - decided / slots if slots else 0.0)
    m["io.trace_bytes"] = outcome.trace_bytes
    m["orchestrator.self_s"] = outcome.run_s - outcome.child_s
    m["sim_round_s"] = outcome.sim_round_s
    return m


# --------------------------------------------------------------------------
# the measured loop
# --------------------------------------------------------------------------

# Shared hosts change CPU speed by up to 2x for tens of seconds to minutes at
# a time, which moves every time of a run alike and, measured raw, spreads
# the medians of runs made minutes apart by 25-30 %. A fixed kernel of
# interpreter work and small numpy products (the mix of mecfl's inner
# loops) is timed before and after each timed call, and end-to-end times
# are reported at the speed of a host on which it takes REFERENCE_KERNEL_S.
REFERENCE_KERNEL_S = 0.020


def reference_kernel_s() -> float:
    """Median time of three passes of the reference kernel."""
    a = np.linspace(0.0, 1.0, 32 * 17).reshape(32, 17)
    b = np.linspace(0.0, 1.0, 17 * 4).reshape(17, 4)
    times = []
    for _ in range(3):
        start = perf_counter()
        total = 0
        for i in range(150_000):
            total += i * i
        for _ in range(3_000):
            (a @ b).sum()
        times.append(perf_counter() - start)
    return statistics.median(times)


class HostSpeed:
    """Reference-kernel times around timed calls, and the scale they imply."""

    def __init__(self):
        self.samples: list[float] = []
        self.mark()

    def mark(self) -> None:
        self.samples.append(reference_kernel_s())

    def scale_since_mark(self) -> float:
        """Factor to the reference host for the call made since the last mark."""
        before = self.samples[-1]
        self.mark()
        return REFERENCE_KERNEL_S / ((before + self.samples[-1]) / 2.0)


def _repeat(budget_s: float, step) -> list:
    """Call ``step`` at least once, then while the next call should end within budget."""
    results = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results.append(step())
        last = perf_counter() - t0
        if perf_counter() - start + last > budget_s:
            return results


def setup_probe(wl: Workload, seed: int) -> float:
    """Set-up time of a fresh process: import plus population and test-set synthesis."""
    completed = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"),
         str(wl.users), str(wl.samples_per_user), str(seed)],
        cwd=env.ROOT, capture_output=True, text=True, timeout=120)
    if completed.returncode != 0:
        raise BenchmarkError(f"set-up probe failed:\n{completed.stderr}")
    return float(completed.stdout.split()[-1])


def _warm_up(wl: Workload, seed: int) -> None:
    """Run small instances of the workload's code paths before anything is timed.

    The first large array allocations of a process are fresh memory maps;
    later ones reuse freed heap, so an unwarmed first run reads slow.
    """
    tiny = Workload("warm-up", "proposed", users=3, samples_per_user=20, rounds=2)
    users, datasets, test, cfg = build_inputs(tiny, seed)
    orchestrator.run_proposed(users, datasets, cfg, tiny.rounds, test_dataset=test,
                              stop_on_convergence=False)
    if wl.kind == "verify":
        verify.check_gamma_closed_form(n_instances=2)
        verify.check_uplink_closed_form(n_instances=1)


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "git_revision": _git_revision(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "thread_pools": {var: os.environ.get(var) for var in env.THREAD_POOL_VARS},
    }


def _git_revision() -> str:
    git_dir = os.path.join(env.ROOT, ".git")
    try:
        with open(os.path.join(git_dir, "HEAD"), encoding="utf-8") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git_dir, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(git_dir, "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def _median(values):
    if not values or any(v is None for v in values):
        return None
    return statistics.median(values)


def measure(wl: Workload, seed: int, seconds: float, trace: bool,
            setup_repeats: int = SETUP_REPEATS) -> tuple[dict, dict]:
    """Measure one workload; returns (result line, detail record)."""
    attempted = failed = 0
    expected = None  # fingerprint of the first correct run

    def attempt(run) -> Outcome | None:
        nonlocal attempted, failed, expected
        attempted += 1
        try:
            outcome = run()
        except BenchmarkError:
            raise
        except Exception:  # one failed run is counted, the benchmark goes on
            traceback.print_exc()
            failed += 1
            return None
        if not outcome.problems:
            if expected is None:
                expected = outcome.fingerprint
            elif outcome.fingerprint != expected:
                outcome.problems.append("simulated outputs differ from the first run's")
        if outcome.problems:
            print(f"run {attempted} failed: " + "; ".join(outcome.problems), file=sys.stderr)
            failed += 1
            return None
        return outcome

    def scaled(run) -> Outcome | None:
        outcome = attempt(run)
        scale = speed.scale_since_mark()
        if outcome is not None:
            outcome.scale = scale
        return outcome

    speed = HostSpeed()
    setup_raw, setup = [], []
    for _ in range(0 if trace else setup_repeats):
        setup_raw.append(setup_probe(wl, seed))
        setup.append(setup_raw[-1] * speed.scale_since_mark())
    workdir = tempfile.mkdtemp(prefix=".bench-work-", dir=env.ROOT)
    try:
        _warm_up(wl, seed)
        inputs = None if wl.kind == "sweep_offload" else build_inputs(wl, seed)
        speed.mark()
        plain = _repeat(seconds / 2 if trace else seconds,
                        lambda: scaled(lambda: run_once(wl, seed, inputs, workdir)))
        traced = []
        if trace:
            tracer = Tracer()
            with Patches() as patches:
                tracer.install(patches)
                traced = _repeat(seconds / 2, lambda: scaled(
                    lambda: traced_once(wl, seed, tracer, workdir)))
            absent = patches.absent
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    plain = [o for o in plain if o is not None]
    traced = [o for o in traced if o is not None]
    first = plain[0] if plain else None
    if trace:
        metrics = {name: _median([o.layers[name] for o in traced]) for name in PER_LAYER_UNITS
                   if name != "trace.overhead_s"}
        traced_s = _median([o.run_s * o.scale for o in traced])
        plain_s = _median([o.run_s * o.scale for o in plain])
        metrics["trace.overhead_s"] = (None if traced_s is None or plain_s is None
                                       else traced_s - plain_s)
        units = PER_LAYER_UNITS
    else:
        metrics = {
            "setup_s": _median(setup),
            "run_s": _median([o.run_s * o.scale for o in plain]),
            "round_ms_p50": _median([1e3 * s * o.scale for o in plain for s in o.round_s]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "final_test_loss": first.final_test_loss if first else None,
        }
        absent = []
        units = END_TO_END_UNITS
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    detail = {
        "workload": wl.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "environment": environment(),
        "reference_kernel_s": speed.samples,
        "setup_s_raw": setup_raw,
        "run_s_raw_untraced": [o.run_s for o in plain],
        "run_s_raw_traced": [o.run_s for o in traced],
        "rounds_timed": sum(len(o.round_s) for o in plain),
        "final_test_loss": first.final_test_loss if first else None,
        "sim_round_s": first.sim_round_s if first else None,
        "absent_hooks": absent,
    }
    return result, detail
