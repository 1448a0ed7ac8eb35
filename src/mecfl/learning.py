"""One-vs-rest logistic regression trained with mini-batch SGD.

The model keeps one weight row per class, each row holding the feature
weights plus a trailing bias, flattened into a single vector of length
``(n_features + 1) * n_classes``. The loss is the mean over samples of the
squared error between the per-class sigmoid outputs and the one-hot target.

A :class:`Dataset` is validated once, where data enters the program (the
``io`` loaders and synthesizers, or a public caller). SGD then works on its
raw feature and label rows and builds no ``Dataset`` per mini-batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import expit

from .errors import EmptyDataset, InconsistentSizes, ValidationError
from .types import ModelState

_RANGE_ATOL = 1e-9


@dataclass(frozen=True)
class Dataset:
    """Feature matrix in [0, 1] with integer class labels."""

    features: np.ndarray  # (n_samples, n_features)
    labels: np.ndarray    # (n_samples,)
    n_classes: int

    def __post_init__(self):
        feats = np.array(self.features, dtype=float)
        labels = np.array(self.labels, dtype=np.int64)
        if feats.ndim != 2:
            raise ValidationError("Dataset: features must be 2-d (samples, features)")
        if labels.shape != (feats.shape[0],):
            raise ValidationError("Dataset: one label per feature row required")
        if self.n_classes < 2:
            raise ValidationError("Dataset: n_classes must be >= 2")
        if feats.size and (feats.min() < -_RANGE_ATOL or feats.max() > 1.0 + _RANGE_ATOL):
            raise ValidationError("Dataset: features must be normalized to [0, 1]")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValidationError("Dataset: labels must lie in [0, n_classes)")
        feats.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        return Dataset(self.features[indices], self.labels[indices], self.n_classes)


def weight_dim(n_features: int, n_classes: int) -> int:
    """Flattened weight length: one bias-augmented row per class."""
    return (n_features + 1) * n_classes


def split_dataset(d: Dataset, delta: float, seed: int) -> tuple[Dataset, Dataset]:
    """Uniform random partition ``(local_part, offload_part)``.

    round(delta * n) samples go to the edge; ties round half-up and the
    remainder stays local, so the two parts always partition the input
    exactly. Deterministic for a fixed seed.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValidationError(f"split_dataset: delta must lie in [0, 1], got {delta}")
    n = d.sample_count
    n_offload = int(math.floor(delta * n + 0.5))
    perm = np.random.default_rng(seed).permutation(n)
    return d.take(perm[n_offload:]), d.take(perm[:n_offload])


def concat_datasets(parts, n_classes: int, n_features: int) -> Dataset:
    """Pool datasets in the given order (empty result allowed)."""
    parts = [p for p in parts if p.sample_count]
    if not parts:
        return Dataset(np.zeros((0, n_features)), np.zeros(0, dtype=np.int64), n_classes)
    return Dataset(
        np.concatenate([p.features for p in parts]),
        np.concatenate([p.labels for p in parts]),
        n_classes,
    )


def shuffle_dataset(d: Dataset, seed: int) -> Dataset:
    return d.take(np.random.default_rng(seed).permutation(d.sample_count))


def _scores(w: np.ndarray, features: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-class sigmoid outputs, shape (samples, classes)."""
    rows = w.reshape(n_classes, -1)
    z = features @ rows[:, :-1].T + rows[:, -1]
    return expit(z)


def loss_gradient(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                  n_classes: int) -> np.ndarray:
    """Gradient of the mean squared sigmoid error over the given rows."""
    if labels.size == 0:
        raise EmptyDataset("loss_gradient: dataset has no samples")
    probs = _scores(w, features, n_classes)
    targets = np.eye(n_classes)[labels]               # one-hot, (samples, classes)
    dz = 2.0 * (probs - targets) * probs * (1.0 - probs) / labels.size
    grad_feat = dz.T @ features                       # (classes, features)
    grad_bias = dz.sum(axis=0)[:, None]               # (classes, 1)
    return np.hstack([grad_feat, grad_bias]).ravel()


def train(w_init: np.ndarray, d: Dataset, epochs: int, lr: float, seed: int,
          batch_size: int = 32) -> np.ndarray:
    """Mini-batch SGD on the squared sigmoid error; deterministic per seed."""
    if d.sample_count == 0:
        raise EmptyDataset("train: dataset has no samples")
    if not (lr > 0 and epochs >= 0 and batch_size >= 1):
        raise ValidationError("train: need lr > 0, epochs >= 0 and batch_size >= 1, got "
                              f"lr={lr}, epochs={epochs}, batch_size={batch_size}")
    w = np.array(w_init, dtype=float)
    dim = weight_dim(d.n_features, d.n_classes)
    if w.shape != (dim,):
        raise ValidationError(f"train: weight length {w.size} does not match {dim}")
    rng = np.random.default_rng(seed)
    n = d.sample_count
    for _ in range(epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            rows = order[start:start + batch_size]
            w -= lr * loss_gradient(w, d.features[rows], d.labels[rows], d.n_classes)
    return w


def evaluate_loss(w: np.ndarray, d: Dataset) -> float:
    """Mean over samples of the summed per-class squared sigmoid error."""
    if d.sample_count == 0:
        raise EmptyDataset("evaluate_loss: dataset has no samples")
    errors = _scores(w, d.features, d.n_classes) - np.eye(d.n_classes)[d.labels]
    return float(np.sum(errors ** 2) / d.sample_count)


def accuracy(w: np.ndarray, d: Dataset) -> float:
    if d.sample_count == 0:
        raise EmptyDataset("accuracy: dataset has no samples")
    predicted = np.argmax(_scores(w, d.features, d.n_classes), axis=1)
    return float(np.mean(predicted == d.labels))


def aggregate(model: ModelState) -> np.ndarray:
    """Size-weighted mean of the local models and the edge model.

    Coefficients are trainset sizes over the total pool size; they must sum
    to 1 (the bookkeeping must partition the pool), which reduces to the
    plain per-user weighted mean when nothing was offloaded and to the edge
    model alone when everything was.
    """
    total = int(model.dataset_sizes.sum())
    trained = int(model.local_trainset_sizes.sum()) + int(model.edge_trainset_size)
    if trained != total:
        raise InconsistentSizes(
            f"aggregate: trained on {trained} samples but the pool holds {total}"
        )
    coeffs = model.local_trainset_sizes / total
    edge_coeff = model.edge_trainset_size / total
    if abs(float(coeffs.sum()) + edge_coeff - 1.0) > 1e-12:
        raise InconsistentSizes("aggregate: coefficients do not sum to 1")
    return coeffs @ model.local_weights + edge_coeff * model.edge_weights
