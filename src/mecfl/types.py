"""Core value types: system constants, the user population, allocations, models, metrics.

All types are frozen dataclasses and every array field is made read-only at
construction, so instances are immutable value objects that can be shared
across workers without synchronization. Invalid states cannot be built:
constructors validate their invariants and raise :class:`ValidationError`
(or a subclass) on violation.

An :class:`AllocationState` is one allocation of ``n`` users, or a stack of
candidate allocations: its fields may be shaped ``(..., n)``. They are
broadcast to one shape, stored once and validated in one pass along the
last (user) axis, so the oracles can score a whole candidate grid with one
call of the cost model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields

import numpy as np

from .errors import OutOfRange, SumExceedsOne, ValidationError

# Absolute slack used when comparing allocations against box/simplex bounds.
CONSTRAINT_ATOL = 1e-9


def _require_positive(owner: str, **named: float) -> None:
    for name, value in named.items():
        if not math.isfinite(value) or value <= 0:
            raise ValidationError(f"{owner}: {name} must be finite and > 0, got {value!r}")


_RANGE = "a range (lo, hi) of real numbers with lo <= hi"
_FIELD_KINDS = {"int": "an integer", "float": "a real number", "tuple": _RANGE,
                "tuple | None": _RANGE + ", or None"}
_NUMBER_TYPES = {"int": (int, np.integer), "float": (int, float, np.integer, np.floating)}


def _fits(value, kind: str) -> bool:
    if kind.startswith("tuple"):
        return (value is None and kind.endswith("None")) or (
            isinstance(value, (tuple, list)) and len(value) == 2
            and all(_fits(v, "float") for v in value) and value[0] <= value[1])
    return isinstance(value, _NUMBER_TYPES[kind]) and not isinstance(value, bool)


def _require_field_types(obj) -> None:
    """Check each int, float and (lo, hi) range field by its annotation; a bool is no number."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if f.type in _FIELD_KINDS and not _fits(value, f.type):
            raise ValidationError(f"{type(obj).__name__}: {f.name} must be "
                                  f"{_FIELD_KINDS[f.type]}, got {value!r}")


def _frozen_array(obj, name: str, value, dtype=float) -> np.ndarray:
    arr = np.array(value, dtype=dtype)
    arr.flags.writeable = False
    object.__setattr__(obj, name, arr)
    return arr


@dataclass(frozen=True)
class SystemConfig:
    """Global constants shared by every user and the edge server.

    Values without an obviously physical default (noise power, cycles per
    byte, chip capacitance, score weights) are documented assumptions and
    can all be overridden through the config file or keyword arguments.
    """

    bandwidth_hz: float = 20e6           # total uplink bandwidth of the access point
    noise_power: float = 1e-9            # additive white Gaussian noise power (W)
    edge_cpu_hz: float = 16e9            # edge server CPU rate (cycles/s)
    cycles_per_byte: float = 100.0       # CPU cycles needed to train on one byte
    chip_capacitance: float = 1e-28      # effective switched capacitance of user CPUs
    loss_weight: float = 1.0             # scales test loss in the reported weighted score
    time_weight: float = 1.0             # scales round time in the reported weighted score
    convergence_tol: float = 1e-3        # threshold for both per-round stop tests
    multiplier_increment: float = 0.05   # step added to the offload multiplier on an energy violation
    bytes_per_sample: float = 784.0      # linear dataset-size model: bytes per sample
    bytes_per_weight_element: float = 8.0  # linear model-size model: bytes per weight entry
    local_epochs: int = 5
    learning_rate: float = 0.05
    batch_size: int = 32
    rng_seed: int = 0

    def __post_init__(self):
        _require_field_types(self)
        _require_positive(
            "SystemConfig",
            bandwidth_hz=self.bandwidth_hz,
            noise_power=self.noise_power,
            edge_cpu_hz=self.edge_cpu_hz,
            cycles_per_byte=self.cycles_per_byte,
            chip_capacitance=self.chip_capacitance,
            multiplier_increment=self.multiplier_increment,
            bytes_per_sample=self.bytes_per_sample,
            bytes_per_weight_element=self.bytes_per_weight_element,
            learning_rate=self.learning_rate,
        )
        # +inf is a legal tolerance (stop after the first comparable round)
        if not self.convergence_tol > 0:
            raise ValidationError("SystemConfig: convergence_tol must be > 0")
        if self.loss_weight < 0 or self.time_weight < 0:
            raise ValidationError("SystemConfig: score weights must be >= 0")
        if self.local_epochs < 0:
            raise ValidationError("SystemConfig: local_epochs must be >= 0")
        if self.batch_size < 1:
            raise ValidationError("SystemConfig: batch_size must be >= 1")


@dataclass(frozen=True)
class AllocationState:
    """Decision variables of one round, one entry per user.

    ``delta`` is the offloaded dataset fraction, ``gamma`` the local CPU
    fraction, ``uplink_offload``/``uplink_weight`` the bandwidth shares for
    dataset offloading and weight upload, and the two multiplier vectors
    weight the proportional bandwidth allocation.

    Each field is 1-d of length ``n_users``, or ``(..., n_users)`` for a
    stack of candidates; the leading axes of all fields are broadcast to one
    shape, and every candidate must be a valid allocation.
    """

    delta: np.ndarray
    gamma: np.ndarray
    uplink_offload: np.ndarray
    uplink_weight: np.ndarray
    lambda_offload: np.ndarray
    lambda_local: np.ndarray

    _FIELDS = ("delta", "gamma", "uplink_offload", "uplink_weight",
               "lambda_offload", "lambda_local")

    def __post_init__(self):
        arrays = [np.asarray(getattr(self, name), dtype=float) for name in self._FIELDS]
        n = arrays[0].shape[-1] if arrays[0].ndim else 1
        for name, arr in zip(self._FIELDS, arrays):
            if arr.ndim == 0 or arr.shape[-1] != n:
                where = " along its last axis" if arr.ndim > 1 else ""
                raise ValidationError(f"AllocationState: {name} must be 1-d of length {n}{where}")
        if n == 0:
            raise ValidationError("AllocationState: at least one user required")
        try:
            shape = np.broadcast(*arrays).shape
        except ValueError:
            raise ValidationError("AllocationState: the candidate axes of shapes "
                                  f"{[arr.shape for arr in arrays]} do not broadcast") from None
        # one read-only copy of all six fields; each field is a row of it
        stacked = np.empty((len(arrays),) + shape)
        for i, arr in enumerate(arrays):
            stacked[i] = arr
        stacked.flags.writeable = False
        for name, row in zip(self._FIELDS, stacked):
            object.__setattr__(self, name, row)
        validate_allocation(self, n)

    @property
    def n_users(self) -> int:
        return self.delta.shape[-1]

    @classmethod
    def uniform(cls, n_users: int, delta=0.0, gamma=1.0, multiplier=0.5) -> "AllocationState":
        """Allocation with equal bandwidth shares.

        ``delta`` and ``gamma`` are one value for every user or one per user.
        """
        share = np.full(n_users, 1.0 / n_users)
        return cls(
            delta=np.full(n_users, delta, dtype=float),
            gamma=np.full(n_users, gamma, dtype=float),
            uplink_offload=share,
            uplink_weight=share.copy(),
            lambda_offload=np.full(n_users, float(multiplier)),
            lambda_local=np.full(n_users, 1.0 - float(multiplier)),
        )


# Upper box bound of each AllocationState field, in _FIELDS order: fractions
# and shares lie in [0, 1], multipliers only need to be finite and >= 0.
_FIELD_UPPER = np.array([1.0 + CONSTRAINT_ATOL] * 4 + [np.finfo(float).max] * 2)


def validate_allocation(alloc: AllocationState, n_users: int) -> AllocationState:
    """Check an allocation against its box and simplex constraints.

    Returns the input unchanged when every invariant holds; raises
    :class:`OutOfRange` or :class:`SumExceedsOne` otherwise. Comparisons
    use an absolute slack of ``CONSTRAINT_ATOL``. Non-finite entries are
    reported first, then out-of-range ones, then an oversized share sum;
    within one check the first field in ``_FIELDS`` order, then the first
    candidate of a stack and then the lowest user index is reported.
    """
    names = AllocationState._FIELDS
    arrays = [getattr(alloc, name) for name in names]
    for name, arr in zip(names, arrays):
        if arr.shape[-1] != n_users:
            raise ValidationError(
                f"AllocationState: {name} has length {arr.shape[-1]}, expected {n_users}"
            )
    stacked = np.array(arrays)   # one row per field, in _FIELDS order
    upper = _FIELD_UPPER.reshape((-1,) + (1,) * (stacked.ndim - 1))   # broadcast per field
    # Non-finite entries fail both comparisons, so one pass covers the boxes too.
    inside = (stacked >= -CONSTRAINT_ATOL) & (stacked <= upper)
    if not inside.all():
        finite = np.isfinite(stacked)
        if not finite.all():
            row, *where = np.unravel_index(int(finite.argmin()), stacked.shape)
            raise ValidationError(f"AllocationState: {names[row]}[{', '.join(map(str, where))}]"
                                  " is not finite")
        where = np.unravel_index(int(inside.argmin()), stacked.shape)
        raise OutOfRange(int(where[-1]), names[where[0]], float(stacked[where]))
    totals = stacked[2:4].sum(axis=-1)
    over = totals > 1.0 + CONSTRAINT_ATOL
    if over.any():
        first = np.unravel_index(int(over.argmax()), over.shape)
        raise SumExceedsOne(names[2 + first[0]], float(totals[first]) - 1.0)
    return alloc


@dataclass(frozen=True)
class Population:
    """The users, one array per field, indexed by position.

    Read-only struct of arrays that the cost model and the best responses
    evaluate for every user at once; it is the only description of a user.
    Each field is fixed for a whole experiment.
    """

    transmit_power: np.ndarray   # W
    channel_gain: np.ndarray     # dimensionless uplink channel gain
    cpu_hz: np.ndarray           # CPU resources available for local training (cycles/s)
    energy_budget: np.ndarray    # J a user may spend in one communication round
    dataset_size: np.ndarray     # samples held locally

    _FIELDS = ("transmit_power", "channel_gain", "cpu_hz", "energy_budget", "dataset_size")

    def __post_init__(self):
        arrays = [np.asarray(getattr(self, name), dtype=float) for name in self._FIELDS]
        n = arrays[0].size
        if n == 0 or any(arr.shape != (n,) for arr in arrays):
            raise ValidationError("Population: needs at least one user and one entry "
                                  "per user in every field")
        values = np.array(arrays)   # one row per field, in _FIELDS order
        ok = (values > 0) & (values < np.inf)                # NaN fails both
        sizes = values[-1]
        ok[-1] &= np.maximum(np.floor(sizes), 1.0) == sizes  # integers >= 1
        if not ok.all():
            row, i = np.unravel_index(int(ok.argmin()), ok.shape)
            rule = "an integer >= 1" if self._FIELDS[row] == "dataset_size" else "finite and > 0"
            raise ValidationError(f"Population: {self._FIELDS[row]}[{i}] must be {rule}, "
                                  f"got {float(values[row, i])!r}")
        values.flags.writeable = False
        for name, row in zip(self._FIELDS, values):
            object.__setattr__(self, name, row)
        _frozen_array(self, "dataset_size", sizes, dtype=np.int64)

    @property
    def n_users(self) -> int:
        return self.dataset_size.size


@dataclass(frozen=True)
class ModelState:
    """Model weights plus the dataset-size bookkeeping used for aggregation.

    ``local_weights`` has one row per user; ``local_trainset_sizes`` counts
    the samples each user actually trained on this round, while
    ``edge_trainset_size`` counts the pooled offloaded samples trained at
    the edge.
    """

    local_weights: np.ndarray       # (n_users, dim)
    edge_weights: np.ndarray        # (dim,)
    global_weights: np.ndarray      # (dim,)
    dataset_sizes: np.ndarray       # full local dataset sizes, samples
    local_trainset_sizes: np.ndarray
    edge_trainset_size: int

    def __post_init__(self):
        local = _frozen_array(self, "local_weights", self.local_weights)
        edge = _frozen_array(self, "edge_weights", self.edge_weights)
        glob = _frozen_array(self, "global_weights", self.global_weights)
        sizes = _frozen_array(self, "dataset_sizes", self.dataset_sizes, dtype=np.int64)
        kept = _frozen_array(self, "local_trainset_sizes", self.local_trainset_sizes, dtype=np.int64)
        if local.ndim != 2:
            raise ValidationError("ModelState: local_weights must be 2-d (n_users, dim)")
        n_users, dim = local.shape
        if edge.shape != (dim,) or glob.shape != (dim,):
            raise ValidationError("ModelState: all weight vectors must share one dimension")
        if sizes.shape != (n_users,) or kept.shape != (n_users,):
            raise ValidationError("ModelState: size bookkeeping must have one entry per user")
        if np.any(sizes < 1):
            raise ValidationError("ModelState: dataset sizes must be >= 1")
        if np.any(kept < 0) or np.any(kept > sizes):
            raise ValidationError("ModelState: local trainset sizes must lie in [0, dataset size]")
        if self.edge_trainset_size < 0:
            raise ValidationError("ModelState: edge_trainset_size must be >= 0")

    @classmethod
    def initial(cls, n_users: int, dim: int, dataset_sizes) -> "ModelState":
        """All-zero weights; every sample still counted as local."""
        sizes = np.asarray(dataset_sizes, dtype=np.int64)
        return cls(
            local_weights=np.zeros((n_users, dim)),
            edge_weights=np.zeros(dim),
            global_weights=np.zeros(dim),
            dataset_sizes=sizes,
            local_trainset_sizes=sizes.copy(),
            edge_trainset_size=0,
        )


@dataclass(frozen=True)
class RoundMetrics:
    """Per-round outputs: times, energies, losses, and the weighted score."""

    t_local: np.ndarray   # seconds, per user
    t_edge: float
    t_total: float
    e_total: np.ndarray   # joules, per user
    train_loss: float
    test_loss: float
    weighted_score: float

    def __post_init__(self):
        t_local = _frozen_array(self, "t_local", self.t_local)
        e_total = _frozen_array(self, "e_total", self.e_total)
        if np.any(t_local < 0) or np.any(e_total < 0):
            raise ValidationError("RoundMetrics: times and energies must be >= 0")
        # numpy scalars are coerced so downstream serialization sees plain floats
        for name in ("t_edge", "t_total", "train_loss", "test_loss", "weighted_score"):
            object.__setattr__(self, name, float(getattr(self, name)))
        if self.t_edge < 0 or self.t_total < 0:
            raise ValidationError("RoundMetrics: times must be >= 0")


def project_unit_interval(x: float) -> float:
    """Clamp a finite real onto [0, 1]."""
    x = float(x)
    if not math.isfinite(x):
        raise ValidationError(f"project_unit_interval: input must be finite, got {x!r}")
    return min(max(x, 0.0), 1.0)
