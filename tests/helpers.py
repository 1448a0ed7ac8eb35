"""Shared fixtures for the test suite."""

from dataclasses import fields

import numpy as np

from mecfl.io import ExperimentSpec
from mecfl.types import AllocationState, Population, SystemConfig

# Desk-scale settings: 10 users x 200 synthetic samples, hyperparameters
# chosen so training plateaus well inside the iteration cap.
DESK_SYSTEM = dict(learning_rate=0.5, local_epochs=10)


def desk_spec(seed=0, **overrides) -> ExperimentSpec:
    system = overrides.pop("system", SystemConfig(**DESK_SYSTEM))
    return ExperimentSpec(seed=seed, class_separation=8.0, system=system, **overrides)


def make_pop(n=1, power=0.2, gain=1e-6, cpu=1.2e9, budget=50.0, samples=1000) -> Population:
    """``n`` users (or one per entry of a field given per user); each field
    is one value for all of them or one value per user."""
    power, gain, cpu, budget, samples, _ = np.broadcast_arrays(power, gain, cpu, budget,
                                                               samples, np.empty(n))
    return Population(transmit_power=power.ravel(), channel_gain=gain.ravel(), cpu_hz=cpu.ravel(),
                      energy_budget=budget.ravel(), dataset_size=samples.ravel())


def join(pops) -> Population:
    """The users of several populations, in order, as one population."""
    pops = list(pops)
    return Population(**{f.name: np.concatenate([getattr(p, f.name) for p in pops])
                         for f in fields(Population)})


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
