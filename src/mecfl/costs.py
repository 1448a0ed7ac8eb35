"""Uplink rates and time/energy accounting for one communication round.

Each user sees a spectral base rate

    R_i = bandwidth * log2(1 + p_i * g_i / n0)

and receives the fractions ``uplink_offload`` / ``uplink_weight`` of it for
dataset offloading and weight upload. The two transmissions never run at
the same time; sequencing them is the orchestrator's job.

Sizes are carried in bytes and converted to bits only where they meet a
rate (rates are bit/s). The size of a dataset and of the weight vector are
linear models: ``bytes_per_sample * samples`` and
``bytes_per_weight_element * dim``: the costs read the model only as ``dim``.

The kernels (``training_time``, ``transmit_time``, ...) broadcast over
numpy arrays and scalars alike, and the size and rate models
(``base_rate``, ``dataset_bytes``) give one value per user of a
:class:`Population`; none of them carry guards. The round costs
(``local_time``, ``total_energy``, ``edge_time_user``, ``edge_time_total``)
take a whole :class:`Population` and return one value per user; all but
``edge_time_total`` also take a stack of candidate allocations, fields
shaped ``(..., n)``, and return one row per candidate. A zero divisor (CPU
share, bandwidth share) under a nonzero numerator raises
:class:`DegenerateDivisor` rather than producing ``inf``; when the
numerator is exactly zero the term is 0.
"""

from __future__ import annotations

import numpy as np

from .errors import DegenerateDivisor
from .types import AllocationState, Population, SystemConfig

BITS_PER_BYTE = 8.0


# --------------------------------------------------------------------------
# broadcasting kernels and size/rate models (no degeneracy guards)
# --------------------------------------------------------------------------

def training_time(data_bytes, cycles_per_byte, cpu_share, cpu_hz):
    """data_bytes * cycles_per_byte / (cpu_share * cpu_hz), seconds."""
    return data_bytes * cycles_per_byte / (cpu_share * cpu_hz)


def training_energy(capacitance, data_bytes, cycles_per_byte, cpu_share, cpu_hz):
    """capacitance * cycles * (effective frequency)^2, joules."""
    return capacitance * data_bytes * cycles_per_byte * (cpu_share * cpu_hz) ** 2


def transmit_time(payload_bytes, share, rate_bps):
    """8 * payload_bytes / (share * rate_bps), seconds."""
    return BITS_PER_BYTE * payload_bytes / (share * rate_bps)


def transmit_energy(power_w, payload_bytes, share, rate_bps):
    """Transmit power integrated over the transmission time, joules."""
    return power_w * transmit_time(payload_bytes, share, rate_bps)


def base_rate(pop: Population, cfg: SystemConfig) -> np.ndarray:
    """Full-bandwidth achievable rate, bit/s, of every user."""
    snr = pop.transmit_power * pop.channel_gain / cfg.noise_power
    return cfg.bandwidth_hz * np.log2(1.0 + snr)


def dataset_bytes(pop: Population, cfg: SystemConfig) -> np.ndarray:
    """Size of the full local dataset, bytes, of every user."""
    return cfg.bytes_per_sample * pop.dataset_size


def weights_bytes(dim: int, cfg: SystemConfig) -> float:
    return cfg.bytes_per_weight_element * dim


# --------------------------------------------------------------------------
# per-round costs of every user
# --------------------------------------------------------------------------

def check_degenerate(bad, what: str) -> None:
    """Raise :class:`DegenerateDivisor` naming the first user flagged in ``bad``.

    ``bad`` is ``(..., n)``; the user is named by its index on the last axis.
    """
    if bad.any():
        raise DegenerateDivisor(f"user {int(bad.argmax()) % bad.shape[-1]}: {what}")


def _upload_time(alloc: AllocationState, dim: int, cfg: SystemConfig, rate):
    check_degenerate(alloc.uplink_weight <= 0.0, "zero uplink share for the weight upload")
    return transmit_time(weights_bytes(dim, cfg), alloc.uplink_weight, rate)


def _offload_time(pop: Population, alloc: AllocationState, cfg: SystemConfig, rate):
    """Dataset offload time of every user; exactly 0 where delta = 0."""
    share, delta = alloc.uplink_offload, alloc.delta
    check_degenerate((share <= 0.0) & (delta > 0.0), "delta>0 needs a positive offload share")
    with np.errstate(divide="ignore", invalid="ignore"):
        seconds = transmit_time(delta * dataset_bytes(pop, cfg), share, rate)
    return np.where(delta > 0.0, seconds, 0.0)


def local_time(pop: Population, alloc: AllocationState, dim: int,
               cfg: SystemConfig) -> np.ndarray:
    """Local training time plus weight-upload time of every user.

    (1 - delta) * data_bytes * cycles_per_byte / (gamma * cpu_hz)
        + 8 * weight_bytes / (uplink_weight * R_i)
    """
    kept_bytes = (1.0 - alloc.delta) * dataset_bytes(pop, cfg)
    check_degenerate((alloc.gamma <= 0.0) & (kept_bytes > 0.0),
                     "gamma=0 with local data to train on")
    with np.errstate(divide="ignore", invalid="ignore"):
        train = training_time(kept_bytes, cfg.cycles_per_byte, alloc.gamma, pop.cpu_hz)
    train = np.where(kept_bytes > 0.0, train, 0.0)
    return train + _upload_time(alloc, dim, cfg, base_rate(pop, cfg))


def total_energy(pop: Population, alloc: AllocationState, dim: int,
                 cfg: SystemConfig) -> np.ndarray:
    """Per-round energy of every user: local training, weight upload, offloading.

    capacitance * (1 - delta) * data_bytes * cycles_per_byte * (gamma * cpu_hz)^2
        + p_i * 8 * weight_bytes / (uplink_weight * R_i)
        + p_i * 8 * delta * data_bytes / (uplink_offload * R_i)
    """
    kept_bytes = (1.0 - alloc.delta) * dataset_bytes(pop, cfg)
    compute = training_energy(cfg.chip_capacitance, kept_bytes, cfg.cycles_per_byte,
                              alloc.gamma, pop.cpu_hz)
    rate = base_rate(pop, cfg)
    power = pop.transmit_power
    return (compute + power * _upload_time(alloc, dim, cfg, rate)
            + power * _offload_time(pop, alloc, cfg, rate))


def edge_time_user(pop: Population, alloc: AllocationState, cfg: SystemConfig) -> np.ndarray:
    """Every user's own offload time plus the shared edge training time.

    delta_i * data_bytes_i * 8 / (uplink_offload_i * R_i)
        + sum_j{delta_j * data_bytes_j} * cycles_per_byte / edge_cpu_hz

    The max over users is ``edge_time_total``.
    """
    offloaded = (alloc.delta * dataset_bytes(pop, cfg)).sum(axis=-1, keepdims=True)
    edge_compute = offloaded * cfg.cycles_per_byte / cfg.edge_cpu_hz
    return _offload_time(pop, alloc, cfg, base_rate(pop, cfg)) + edge_compute


def edge_time_total(pop: Population, alloc: AllocationState, cfg: SystemConfig) -> float:
    """Slowest dataset offload plus the pooled edge training time."""
    return float(edge_time_user(pop, alloc, cfg).max())
