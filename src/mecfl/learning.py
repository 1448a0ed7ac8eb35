"""One-vs-rest logistic regression trained with mini-batch SGD.

The model keeps one weight row per class, each row holding the feature
weights plus a trailing bias, flattened into a single vector of length
``(n_features + 1) * n_classes``. The loss is the mean over samples of the
squared error between the per-class sigmoid outputs and the one-hot target.

A :class:`Dataset` is validated once, where data enters the program (the
``io`` loaders and synthesizers, or a public caller). SGD then reads rows by
index from it. :func:`train_users` is the one SGD kernel: it trains many
users at once, each on its own row set of one pool, one mini-batch step for
all users at a time, and gives every user the same bits as training it
alone. :func:`train` is its one-row-set call, and :func:`split_dataset`
returns row indices, so local training copies no user data.
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


def split_dataset(d: Dataset, delta: float, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random partition of the rows of ``d`` as ``(kept_rows, offloaded_rows)``.

    round(delta * n) row indices go to the edge; ties round half-up and the
    remainder stays local, so the two index arrays always partition
    ``range(n)`` exactly. Deterministic for a fixed seed.
    """
    if not 0.0 <= delta <= 1.0:
        raise ValidationError(f"split_dataset: delta must lie in [0, 1], got {delta}")
    n = d.sample_count
    n_offload = int(math.floor(delta * n + 0.5))
    perm = np.random.default_rng(seed).permutation(n)
    return perm[n_offload:], perm[:n_offload]


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


def _logits(w: np.ndarray, features: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-class scores before the sigmoid, shape (..., samples, classes)."""
    rows = w.reshape(*w.shape[:-1], n_classes, -1)
    return features @ rows[..., :-1].swapaxes(-1, -2) + rows[..., None, :, -1]


def _scores(w: np.ndarray, features: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-class sigmoid outputs, shape (samples, classes)."""
    return expit(_logits(w, features, n_classes))


def loss_gradient(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                  n_classes: int) -> np.ndarray:
    """Gradient of the mean squared sigmoid error over the given rows.

    ``w`` (dim,), ``features`` (rows, features) and ``labels`` (rows,) are
    one user. With a leading user axis, ``w`` is (users, dim) and the result
    holds each user's gradient over its own rows; a row labelled -1 pads a
    short batch: it adds nothing, and the mean runs over the other rows.
    """
    one_user = labels.ndim == 1
    if one_user:
        w, features, labels = w[None], features[None], labels[None]
    valid = labels >= 0
    counts = valid.sum(axis=1)
    fewest = counts.min()
    if fewest == 0:
        raise EmptyDataset("loss_gradient: a user has no rows")
    z = _logits(w, features, n_classes)
    if fewest == 1 and features.shape[1] > 1:
        # numpy takes a one-row product with gemv, which sums in another order
        # than gemm: a user whose batch is one row gets the one-row product,
        # so a padded batch gives the same bits as its rows alone.
        single = counts == 1
        z[single, :1] = _logits(w[single], features[single, :1], n_classes)
    probs = expit(z)
    targets = np.eye(n_classes)[labels]               # one-hot, (users, rows, classes)
    dz = 2.0 * (probs - targets) * probs * (1.0 - probs) / counts[:, None, None]
    if fewest < features.shape[1]:
        dz[~valid] = 0.0
    grad_feat = dz.swapaxes(1, 2) @ features           # (users, classes, features)
    grad_bias = dz.sum(axis=1)[..., None]             # (users, classes, 1)
    grad = np.concatenate([grad_feat, grad_bias], axis=2).reshape(len(w), -1)
    return grad[0] if one_user else grad


def train_users(w_init: np.ndarray, pool: Dataset, rows, epochs: int, lr: float, seeds,
                batch_size: int = 32) -> np.ndarray:
    """Mini-batch SGD of every user at once, each from ``w_init`` on its own rows.

    User ``u`` trains on the rows ``rows[u]`` of ``pool`` (indices, in that
    order) with the batches that :func:`train` would draw for them with seed
    ``seeds[u]``: a fresh ``default_rng(seeds[u]).permutation`` each epoch,
    cut into ``batch_size`` chunks. Step k updates every user on its own k-th
    batch; a user out of batches (or with no rows at all) keeps its weights.
    Returns the weights, shape (users, dim), with the same bits as training
    each user alone.
    """
    if not (lr > 0 and epochs >= 0 and batch_size >= 1):
        raise ValidationError("train: need lr > 0, epochs >= 0 and batch_size >= 1, got "
                              f"lr={lr}, epochs={epochs}, batch_size={batch_size}")
    w_init = np.asarray(w_init, dtype=float)
    dim = weight_dim(pool.n_features, pool.n_classes)
    if w_init.shape != (dim,):
        raise ValidationError(f"train: weight length {w_init.size} does not match {dim}")
    rows = [np.asarray(r, dtype=np.int64) for r in rows]
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *rows])
    if flat.size and (flat.min() < 0 or flat.max() >= pool.sample_count):
        raise ValidationError(f"train: row indices must lie in [0, {pool.sample_count})")
    sizes = np.array([r.size for r in rows], dtype=np.int64)
    per_epoch = -(-sizes // batch_size)
    steps = epochs * per_epoch
    # Slots hold the users by step count, most first, so the users still
    # training at step k are the first active[k] slots.
    order = np.argsort(-steps, kind="stable")
    active = len(rows) - np.searchsorted(np.sort(steps), np.arange(steps.max(initial=0)),
                                         side="right")
    # batches[k, slot] holds the pool rows of that user's k-th batch, padded
    # with -1 (which numpy reads as the last row, and the labels mark as padding).
    batches = np.full((len(active), len(rows), batch_size), -1, dtype=np.int32)
    for slot, u in enumerate(order[:np.count_nonzero(steps)]):
        rng, s = np.random.default_rng(seeds[u]), per_epoch[u]
        padded = np.full(s * batch_size, -1, dtype=np.int32)
        for e in range(epochs):
            padded[:sizes[u]] = rows[u][rng.permutation(sizes[u])]
            batches[e * s:(e + 1) * s, slot] = padded.reshape(s, batch_size)
    labels = np.where(batches >= 0, pool.labels[batches], -1)
    w = np.tile(w_init, (len(rows), 1))
    for k, a in enumerate(active):
        w[:a] -= lr * loss_gradient(w[:a], pool.features[batches[k, :a]], labels[k, :a],
                                    pool.n_classes)
    out = np.empty_like(w)
    out[order] = w
    return out


def train(w_init: np.ndarray, d: Dataset, epochs: int, lr: float, seed: int,
          batch_size: int = 32) -> np.ndarray:
    """Mini-batch SGD on all rows of ``d``: :func:`train_users` for one user."""
    if d.sample_count == 0:
        raise EmptyDataset("train: dataset has no samples")
    return train_users(w_init, d, [np.arange(d.sample_count)], epochs, lr, [seed],
                       batch_size)[0]


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
