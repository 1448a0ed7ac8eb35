"""Shared fixtures for the test suite."""

from dataclasses import fields
from pathlib import Path

import numpy as np

from mecfl import costs
from mecfl.errors import ValidationError
from mecfl.io import ExperimentSpec
from mecfl.learning import _scores
from mecfl.types import AllocationState, Population, SystemConfig

# Recorded certificates of ``verify.run_all()`` at full counts (see test_golden_verify.py).
GOLDEN_VERIFY_FULL = Path(__file__).parent / "data" / "golden_verify_full.json"

# Desk-scale settings: 10 users x 200 synthetic samples, hyperparameters
# chosen so training plateaus well inside the iteration cap.
DESK_SYSTEM = dict(learning_rate=0.5, local_epochs=10)


def desk_spec(seed=0, **overrides) -> ExperimentSpec:
    """Desk settings; synthetic data get classes 8 sigmas apart (an IDX spec keeps the default)."""
    system = overrides.pop("system", SystemConfig(**DESK_SYSTEM))
    if "idx_images" not in overrides:
        overrides.setdefault("class_separation", 8.0)
    return ExperimentSpec(seed=seed, system=system, **overrides)


def make_pop(n=1, power=0.2, gain=1e-6, cpu=1.2e9, budget=50.0, samples=1000) -> Population:
    """``n`` users (or one per entry of a field given per user); each field
    is one value for all of them or one value per user."""
    power, gain, cpu, budget, samples, _ = np.broadcast_arrays(power, gain, cpu, budget,
                                                               samples, np.empty(n))
    return Population(transmit_power=power.ravel(), channel_gain=gain.ravel(), cpu_hz=cpu.ravel(),
                      energy_budget=budget.ravel(), dataset_size=samples.ravel())


class CountingGenerator:
    """A ``Generator`` that counts the calls of each of its methods into ``calls``."""

    def __init__(self, generator, calls):
        self._generator, self._calls = generator, calls

    def __getattr__(self, name):
        method = getattr(self._generator, name)

        def counted(*args, **kwargs):
            self._calls[name] += 1
            return method(*args, **kwargs)
        return counted


def join(pops) -> Population:
    """The users of several populations, in order, as one population."""
    pops = list(pops)
    return Population(**{f.name: np.concatenate([getattr(p, f.name) for p in pops])
                         for f in fields(Population)})


def stack(objs):
    """Several Populations or AllocationStates of one user count as one stack:
    fields shaped ``(instances, users)``."""
    objs = list(objs)
    return type(objs[0])(**{f.name: np.stack([getattr(o, f.name) for o in objs])
                            for f in fields(objs[0])})


def make_alloc(n=1, delta=0.5, gamma=0.5, offload=None, upload=None,
               lam_offload=0.5, lam_local=0.5) -> AllocationState:
    share = np.full(n, 1.0 / n)
    return AllocationState(
        delta=np.full(n, delta, dtype=float) if np.isscalar(delta) else np.asarray(delta, float),
        gamma=np.full(n, gamma, dtype=float) if np.isscalar(gamma) else np.asarray(gamma, float),
        uplink_offload=share if offload is None else np.asarray(offload, float),
        uplink_weight=share.copy() if upload is None else np.asarray(upload, float),
        lambda_offload=np.full(n, lam_offload, float) if np.isscalar(lam_offload)
        else np.asarray(lam_offload, float),
        lambda_local=np.full(n, lam_local, float) if np.isscalar(lam_local)
        else np.asarray(lam_local, float),
    )


def balance_of_first(pop, alloc, dim, cfg) -> float:
    """User 0's unclamped offload balance point against the other users' fractions
    in ``alloc.delta``: its best response to them, before the clamp onto [0, 1]."""
    (rate, *_), data = costs.base_rate(pop, cfg), costs.dataset_bytes(pop, cfg)
    local = costs.training_time(data[0], cfg.cycles_per_byte, alloc.gamma[0], pop.cpu_hz[0])
    own = local + costs.transmit_time(costs.weights_bytes(dim, cfg), alloc.uplink_weight[0], rate)
    per_unit = (costs.transmit_time(data[0], alloc.uplink_offload[0], rate)
                + data[0] * cfg.cycles_per_byte / cfg.edge_cpu_hz + local)
    edge_load = (alloc.delta[1:] * data[1:]).sum() * cfg.cycles_per_byte / cfg.edge_cpu_hz
    return float((own - edge_load) / per_unit)


def gauss_seidel_delta(pop, alloc, dim, cfg, max_sweeps=200) -> np.ndarray:
    """Offload fractions of Gauss-Seidel sweeps over a 1-d population, from
    ``alloc.delta`` until a sweep moves nothing (at most ``max_sweeps``).

    In each sweep the users answer in index order, in Python floats: user i
    balances its local and edge completion times against the fresh
    fractions of users j < i and the previous ones of users j > i. A user
    without offload share gets 0, else one without CPU budget 1. The
    per-user reference for ``solve_delta``'s equilibrium, which is this
    iteration's fixed point.
    """
    forced_zero = alloc.uplink_offload <= 0.0
    forced_one = ~forced_zero & (alloc.gamma <= 0.0)
    rate, data = costs.base_rate(pop, cfg), costs.dataset_bytes(pop, cfg)
    with np.errstate(divide="ignore", invalid="ignore"):
        local = costs.training_time(data, cfg.cycles_per_byte, alloc.gamma, pop.cpu_hz)
        own = local + costs.transmit_time(costs.weights_bytes(dim, cfg), alloc.uplink_weight, rate)
        per_unit = (costs.transmit_time(data, alloc.uplink_offload, rate)
                    + data * cfg.cycles_per_byte / cfg.edge_cpu_hz + local)
    delta = alloc.delta.tolist()
    for _ in range(max_sweeps):
        later = np.append(np.cumsum((np.array(delta) * data)[:0:-1])[::-1], 0.0)
        swept, earlier = [], 0.0   # earlier: fresh bytes of users j < i
        for zero, one, own_i, per_unit_i, data_i, later_i in zip(
                forced_zero.tolist(), forced_one.tolist(), own.tolist(), per_unit.tolist(),
                data.tolist(), later.tolist()):
            if zero or one:
                d = float(one)
            else:
                edge_load = (earlier + later_i) * cfg.cycles_per_byte / cfg.edge_cpu_hz
                d = min(max((own_i - edge_load) / per_unit_i, 0.0), 1.0)
            swept.append(d)
            earlier += d * data_i
        if swept == delta:
            break
        delta = swept
    return np.array(delta)


def record_certificates(checks) -> list[dict]:
    """The name, verdict and detail line of each check, as the golden recordings hold them."""
    return [{"name": c.name, "passed": bool(c.passed), "detail": c.detail} for c in checks]


def loss_gradient(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                  n_classes: int) -> np.ndarray:
    """Gradient of the mean squared sigmoid error over the given rows.

    ``w`` is (dim,), ``features`` (rows, features) and ``labels`` (rows,);
    the ones column is appended here. The tests' independent reference for
    ``mecfl.learning.train_users``, which runs the same expression for every
    user at once (see that module's docstring for when it gives the bits of
    one call per batch).
    """
    if len(labels) == 0:
        raise ValidationError("loss_gradient: no rows")
    rows = np.concatenate([features, np.ones((len(labels), 1))], axis=1)
    probs = _scores(w, rows, n_classes)
    dz = 2.0 * (probs - np.eye(n_classes)[labels]) * probs * (1.0 - probs) / len(labels)
    if features.shape[1] > 1:
        return (dz.T @ rows).ravel()
    return (dz[:, :, None] * rows[:, None, :]).sum(axis=0).ravel()   # rows in order, not gemv


def emit_config(spec: ExperimentSpec) -> str:
    """The text of a config file that ``mecfl.io.parse_config`` reads back as ``spec``."""
    lines = ["# mecfl experiment configuration"]
    for f in fields(ExperimentSpec):
        if f.name == "system":
            continue
        lines.append(f"experiment.{f.name} = {getattr(spec, f.name)!r}")
    for f in fields(SystemConfig):
        if f.name != "rng_seed":   # set from experiment.seed
            lines.append(f"system.{f.name} = {getattr(spec.system, f.name)!r}")
    return "\n".join(lines) + "\n"
