"""Experiment configuration, dataset loading, population synthesis, output.

The config file format is plain text with flat dotted key paths::

    # comment
    experiment.user_count = 50   # a comment after the value
    experiment.cpu_hz_range = (1.2e9, 1.5e9)
    system.bandwidth_hz = 20e6

Keys are ``experiment.<field>`` for :class:`ExperimentSpec` fields and
``system.<field>`` for :class:`SystemConfig` fields; values are Python
literals. A line whose first non-blank character is ``#`` is a comment;
elsewhere a ``#`` starts a comment unless it is inside a quoted string.
``experiment.seed`` is a run's one seed (``system.rng_seed`` is set from it,
so a file may not set that). A run's seed enters by a config file, the CLI's
``--seed`` or the :class:`ExperimentSpec` constructor.
"""

from __future__ import annotations

import ast
import csv
import json
import math
import struct
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ValidationError
from .learning import Dataset
from .orchestrator import (
    ExperimentResult,
    run_centralized,
    run_proposed,
    run_traditional,
)
from .types import (_INT64_LIMIT, AllocationState, Population, SystemConfig,
                    _require_field_types, _require_positive, _require_seed)

RUN_SCENARIOS = ("proposed", "traditional", "centralized")   # run_experiment's
SWEEP_SCENARIOS = ("sweep_offload", "sweep_gamma")          # run_sweep's
SCENARIOS = RUN_SCENARIOS + SWEEP_SCENARIOS

OFFLOAD_SWEEP_GRID = tuple(round(0.1 * k, 1) for k in range(11))
# gamma = 0 is degenerate whenever any data stays local, so its grid starts at 0.1
GAMMA_SWEEP_GRID = tuple(round(0.1 * k, 1) for k in range(1, 11))

METRICS_HEADER = ("iteration", "train_loss", "test_loss", "t_total", "t_edge",
                  "t_local_max", "e_total_max", "weighted_score")
SWEEP_HEADER = ("scenario", "value", "train_loss", "test_loss", "t_total", "t_edge",
                "t_local_center", "t_local_celledge", "e_total_center", "e_total_celledge")

# ExperimentSpec's counts and their least values (each lies below 2**63, numpy's int64
# limit), and its ranges that must lie in (0, inf)
_SPEC_MINIMA = {"user_count": 1, "samples_per_user": 1, "max_iterations": 1, "test_samples": 1,
                "sweep_rounds": 1, "n_features": 1, "n_classes": 2}
_POSITIVE_RANGES = ("cpu_hz_range", "energy_budget_range", "distance_range_m",
                    "channel_gain_range")
# ExperimentSpec's IDX inputs: all four set (IDX data) or none (synthetic data)
_IDX_PATHS = ("idx_images", "idx_labels", "idx_test_images", "idx_test_labels")
# ExperimentSpec's synthetic-data fields, which an IDX spec leaves at their defaults
_SYNTHETIC_FIELDS = ("samples_per_user", "n_features", "n_classes", "class_separation",
                     "test_samples")


def _require_finite_means(separation: float, n_features: int, n_classes: int) -> None:
    """Refuse a class separation whose farthest cluster mean of synthetic data is not
    finite; every other mean, and so the spread the data are scaled by, lies between 0
    and that one."""
    if not math.isfinite(separation):
        raise ValidationError(f"class_separation must be finite, got {separation!r}")
    farthest = separation * (1 + (n_classes - 1) // n_features)
    if not math.isfinite(farthest):
        raise ValidationError(f"class_separation {separation!r} puts class {n_classes - 1}'s "
                              f"cluster mean at {farthest!r} with n_features={n_features}; "
                              "it must be finite")


@dataclass(frozen=True)
class ExperimentSpec:
    """One experiment, fully described.

    Defaults give a desk-scale synthetic run (10 users, 200 samples each)
    that finishes in seconds. The heterogeneity ranges draw per-user CPU
    rates and per-round energy budgets uniformly; channel gains come from
    a distance model (gain = d^-3 with log-normal shadowing, distances
    uniform in ``distance_range_m``) unless ``channel_gain_range`` is set,
    in which case gains are drawn uniformly from it instead. The data are IDX
    files when the four ``idx_*`` paths are set (all four or none), else
    synthetic; an IDX spec leaves the synthetic-data fields (``samples_per_user``,
    ``n_features``, ``n_classes``, ``class_separation``, ``test_samples``) at
    their defaults. Every field a spec may set is read by :func:`run_experiment`
    or :func:`run_sweep`.
    """

    scenario: str = "proposed"
    user_count: int = 10
    samples_per_user: int = 200
    idx_images: str | None = None
    idx_labels: str | None = None
    idx_test_images: str | None = None
    idx_test_labels: str | None = None
    n_features: int = 16                    # synthetic data shape
    n_classes: int = 4
    class_separation: float = 5.0           # cluster-mean distance in sigmas
    test_samples: int = 400
    transmit_power_w: float = 0.2
    distance_range_m: tuple = (50.0, 500.0)
    shadowing_sigma_db: float = 8.0
    cpu_hz_range: tuple = (1.2e9, 1.5e9)
    energy_budget_range: tuple = (45.0, 60.0)
    channel_gain_range: tuple | None = None
    max_iterations: int = 100
    sweep_rounds: int = 12                  # training rounds per sweep point
    sweep_delta: float = 0.5                # offload fraction pinned in the CPU sweep
    seed: int = 0
    system: SystemConfig = field(default_factory=SystemConfig)

    def __post_init__(self):
        _require_field_types(self)
        _require_seed("ExperimentSpec", "seed", self.seed)
        if self.scenario not in SCENARIOS:
            raise ValidationError(f"scenario must be one of {SCENARIOS}, got {self.scenario!r}")
        for name, low in _SPEC_MINIMA.items():
            if getattr(self, name) < low:
                raise ValidationError(f"{name} must be >= {low}")
            if getattr(self, name) >= _INT64_LIMIT:
                raise ValidationError(f"{name} must be < 2**63")
        _require_positive("ExperimentSpec", transmit_power_w=self.transmit_power_w)
        if not 0.0 <= self.shadowing_sigma_db < math.inf:
            raise ValidationError(f"shadowing_sigma_db must be finite and >= 0, "
                                  f"got {self.shadowing_sigma_db!r}")
        _require_finite_means(self.class_separation, self.n_features, self.n_classes)
        for name in _POSITIVE_RANGES:
            value = getattr(self, name)
            if value is not None and not (value[0] > 0 and math.isfinite(value[1])):
                raise ValidationError(f"{name} must lie in (0, inf), got {value!r}")
        unset = [name for name in _IDX_PATHS if getattr(self, name) is None]
        if 0 < len(unset) < len(_IDX_PATHS):
            raise ValidationError(f"IDX data needs all four idx_* paths; unset: {', '.join(unset)}")
        if not unset:
            defaults = {f.name: f.default for f in fields(self)}
            changed = [name for name in _SYNTHETIC_FIELDS if getattr(self, name) != defaults[name]]
            if changed:
                raise ValidationError(f"{', '.join(changed)} shape synthetic data only; IDX data "
                                      "take their size and shape from the files")
        if not 0.0 <= self.sweep_delta <= 1.0:
            raise ValidationError("sweep_delta must lie in [0, 1]")


def effective_config(spec: ExperimentSpec) -> SystemConfig:
    """The run's SystemConfig: the spec's seed is the single seed source."""
    return replace(spec.system, rng_seed=spec.seed)


# --------------------------------------------------------------------------
# config files
# --------------------------------------------------------------------------

def parse_config(text: str) -> ExperimentSpec:
    exp_fields = {f.name for f in fields(ExperimentSpec)} - {"system"}
    sys_fields = {f.name for f in fields(SystemConfig)}
    exp_kwargs, sys_kwargs, set_on = {}, {}, {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValidationError(f"config line {lineno}: expected 'key = value'")
        key, value_text = (part.strip() for part in line.split("=", 1))
        if key in set_on:
            raise ValidationError(f"config lines {set_on[key]} and {lineno} both set {key}")
        set_on[key] = lineno
        try:
            value = ast.literal_eval(value_text)
        except (ValueError, SyntaxError) as exc:
            raise ValidationError(f"config line {lineno}: bad literal {value_text!r}") from exc
        scope, _, name = key.partition(".")
        if scope == "experiment" and name in exp_fields:
            exp_kwargs[name] = value
        elif key == "system.rng_seed":
            raise ValidationError(f"config line {lineno}: system.rng_seed is not read; "
                                  "set the run's seed with experiment.seed")
        elif scope == "system" and name in sys_fields:
            sys_kwargs[name] = value
        else:
            raise ValidationError(f"config line {lineno}: unknown key {key!r}")
    return ExperimentSpec(system=SystemConfig(**sys_kwargs), **exp_kwargs)


# --------------------------------------------------------------------------
# datasets
# --------------------------------------------------------------------------

_IDX_IMAGES_MAGIC = 0x00000803
_IDX_LABELS_MAGIC = 0x00000801


def _read_exact(handle, count: int, path: str) -> bytes:
    offset = handle.tell()
    data = handle.read(count)
    if len(data) < count:
        raise ValidationError(f"{path}: truncated at byte {offset}: wanted {count} more bytes, "
                              f"got {len(data)}")
    return data


def _read_idx(path: str, magic: int) -> np.ndarray:
    """One IDX array of unsigned bytes; the magic's low byte is its dimension count."""
    n_dims = magic & 0xFF
    with open(path, "rb") as handle:
        found, *shape = struct.unpack(f">{1 + n_dims}I", _read_exact(handle, 4 + 4 * n_dims, path))
        if found != magic:
            raise ValidationError(f"{path}: magic {found:#010x}, expected {magic:#010x}")
        raw = _read_exact(handle, math.prod(shape), path)
    return np.frombuffer(raw, dtype=np.uint8).reshape(shape)


def _read_idx_pair(images_path: str, labels_path: str) -> tuple[np.ndarray, np.ndarray]:
    images = _read_idx(images_path, _IDX_IMAGES_MAGIC)
    labels = _read_idx(labels_path, _IDX_LABELS_MAGIC).astype(np.int64)
    if len(images) != len(labels):
        raise ValidationError(f"{images_path} holds {len(images)} images but {labels_path} "
                              f"holds {len(labels)} labels")
    if not len(images):
        raise ValidationError(f"{images_path}: the IDX pair holds no images")
    return images.reshape(len(images), -1) / 255.0, labels


def _idx_class_count(labels: np.ndarray) -> int:
    return max(int(labels.max()) + 1, 2)


def load_idx(images_path: str, labels_path: str) -> Dataset:
    """Load an IDX image/label file pair (big-endian, standard headers).

    Pixels are scaled to [0, 1] by dividing by 255 and flattened to one
    row per image. The class count is one more than the largest label.
    """
    features, labels = _read_idx_pair(images_path, labels_path)
    return Dataset(features, labels, n_classes=_idx_class_count(labels))


def synthesize_dataset(n_samples: int, n_features: int, n_classes: int, seed: int,
                       separation: float = 5.0) -> Dataset:
    """Gaussian class clusters, min-max scaled into [0, 1].

    Cluster means sit ``separation`` standard deviations apart along the
    feature axes, so the classes are linearly separable for separations of
    a few sigma. Deterministic per seed.
    """
    if n_samples < 1:
        raise ValidationError("synthesize_dataset: n_samples must be >= 1")
    if n_features < 1 or n_classes < 2:
        raise ValidationError("synthesize_dataset: need n_features >= 1, n_classes >= 2")
    _require_finite_means(separation, n_features, n_classes)
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, n_classes, size=n_samples)
    means = np.zeros((n_classes, n_features))
    for c in range(n_classes):
        means[c, c % n_features] = separation * (1 + c // n_features)
    raw = rng.standard_normal((n_samples, n_features))
    raw += means[labels]   # in place: the same bits as a sum into a new array
    lo, hi = raw.min(), raw.max()
    raw -= lo
    raw /= hi - lo if hi > lo else 1.0
    return Dataset(raw, labels, n_classes)


def synthesize_users(spec: ExperimentSpec) -> tuple[Population, list[Dataset]]:
    """Build the user population and shard the data pool across it.

    CPU rates and energy budgets are uniform over their configured ranges;
    gains follow the distance model (or ``channel_gain_range`` when set).
    The pool is shuffled once and split into near-equal shards, remainders
    going to the lowest user indices; an IDX pool is split whole and needs
    one image per user at least. Every user's dataset is a read-only view of
    consecutive rows of the one shuffled pool, so the data are held once, and
    :func:`~mecfl.learning.concat_datasets` of the users in order is that pool.
    """
    rng = np.random.default_rng(spec.seed)
    n = spec.user_count
    cpu = rng.uniform(*spec.cpu_hz_range, n)
    energy = rng.uniform(*spec.energy_budget_range, n)
    if spec.channel_gain_range is not None:
        gains = rng.uniform(*spec.channel_gain_range, n)
    else:
        distances = rng.uniform(*spec.distance_range_m, n)
        shadowing_db = rng.normal(0.0, spec.shadowing_sigma_db, n)
        gains = distances ** -3.0 * 10.0 ** (shadowing_db / 10.0)

    if spec.idx_images is not None:
        pool = load_idx(spec.idx_images, spec.idx_labels)
        if pool.sample_count < n:
            raise ValidationError(f"{spec.idx_images}: {pool.sample_count} images cannot give "
                                  f"each of user_count={n} users one")
    else:
        pool = synthesize_dataset(n * spec.samples_per_user, spec.n_features,
                                  spec.n_classes, int(rng.integers(2**31)),
                                  spec.class_separation)
    pool = pool.take(rng.permutation(pool.sample_count))
    base, extra = divmod(pool.sample_count, n)
    sizes = base + (np.arange(n) < extra)
    ends = np.cumsum(sizes)
    datasets = [pool.take(slice(end - size, end)) for size, end in zip(sizes, ends)]
    pop = Population(transmit_power=np.full(n, spec.transmit_power_w), channel_gain=gains,
                     cpu_hz=cpu, energy_budget=energy, dataset_size=sizes)
    return pop, datasets


def load_test_dataset(spec: ExperimentSpec) -> Dataset:
    if spec.idx_images is not None:
        # The test set shares the training classes, even where it lacks the top one.
        features, labels = _read_idx_pair(spec.idx_test_images, spec.idx_test_labels)
        n_classes = _idx_class_count(_read_idx(spec.idx_labels, _IDX_LABELS_MAGIC))
        return Dataset(features, labels, n_classes)
    return synthesize_dataset(spec.test_samples, spec.n_features, spec.n_classes,
                              spec.seed + 0x7E57, spec.class_separation)


def representative_users(pop: Population) -> tuple[int, int]:
    """(cell-center index, cell-edge index): the best- and worst-gain users.

    Among equal best gains the highest index is the center; among equal
    worst gains the lowest index is the cell edge.
    """
    gains = pop.channel_gain
    return pop.n_users - 1 - int(gains[::-1].argmax()), int(gains.argmin())


# --------------------------------------------------------------------------
# experiment dispatch
# --------------------------------------------------------------------------

def run_experiment(spec: ExperimentSpec) -> ExperimentResult:
    """Run a (non-sweep) scenario described by the spec."""
    if spec.scenario not in RUN_SCENARIOS:
        raise ValidationError(f"run_experiment cannot handle scenario {spec.scenario!r}")
    run = {"proposed": run_proposed, "traditional": run_traditional,
           "centralized": run_centralized}[spec.scenario]
    pop, datasets = synthesize_users(spec)
    test = load_test_dataset(spec)
    return run(pop, datasets, effective_config(spec), spec.max_iterations, test_dataset=test)


def run_sweep(spec: ExperimentSpec) -> list[dict]:
    """Sweep the offload fraction or the CPU fraction on a static allocation.

    Every sweep point trains for ``sweep_rounds`` rounds on one frozen
    allocation (uniform uplink shares, no per-round resource adaptation),
    isolating the swept variable. Rows come back in grid order.
    """
    if spec.scenario not in SWEEP_SCENARIOS:
        raise ValidationError(f"run_sweep cannot handle scenario {spec.scenario!r}")
    pop, datasets = synthesize_users(spec)
    test = load_test_dataset(spec)
    cfg = effective_config(spec)
    center, edge = representative_users(pop)
    offload = spec.scenario == "sweep_offload"
    rows = []
    for value in OFFLOAD_SWEEP_GRID if offload else GAMMA_SWEEP_GRID:
        delta, gamma = (value, 1.0) if offload else (spec.sweep_delta, value)
        frozen = AllocationState.uniform(pop.n_users, delta=delta, gamma=gamma)
        result = run_proposed(pop, datasets, cfg, spec.sweep_rounds, test_dataset=test,
                              frozen=frozen, stop_on_convergence=False)
        last = result.trace[-1]
        rows.append({
            "scenario": spec.scenario,
            "value": value,
            "train_loss": last.train_loss,
            "test_loss": last.test_loss,
            "t_total": last.t_total,
            "t_edge": last.t_edge,
            "t_local_center": float(last.t_local[center]),
            "t_local_celledge": float(last.t_local[edge]),
            "e_total_center": float(last.e_total[center]),
            "e_total_celledge": float(last.e_total[edge]),
        })
    return rows


# --------------------------------------------------------------------------
# output writers
# --------------------------------------------------------------------------

def write_metrics_csv(path: str, result: ExperimentResult) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(METRICS_HEADER)
        for k, m in enumerate(result.trace):
            writer.writerow([
                k, repr(m.train_loss), repr(m.test_loss), repr(m.t_total), repr(m.t_edge),
                repr(float(m.t_local.max())), repr(float(m.e_total.max())),
                repr(m.weighted_score),
            ])


def write_sweep_csv(path: str, rows: list[dict]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle)
        writer.writerow(SWEEP_HEADER)
        for row in rows:
            writer.writerow([row["scenario"]] + [repr(row[key]) for key in SWEEP_HEADER[1:]])


def write_alloc_trace(path: str, result: ExperimentResult) -> None:
    """JSON-lines dump of the per-iteration allocation state."""
    with open(path, "w", encoding="utf-8") as handle:
        for k, alloc in enumerate(result.alloc_trace):
            record = {name: getattr(alloc, name).tolist() for name in AllocationState._FIELDS}
            handle.write(json.dumps({"iteration": k, **record}) + "\n")
