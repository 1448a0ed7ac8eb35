"""One-vs-rest logistic regression trained with mini-batch SGD.

The model keeps one weight row per class, each row holding the feature
weights plus a trailing bias, flattened into a single vector of length
``(n_features + 1) * n_classes``. Every score multiplies rows that end in a 1
(``Dataset.rows``) by that ``(classes, features + 1)`` block, and every
gradient is ``dz.T @ rows``. The loss is the mean over samples of the
squared error between the per-class sigmoid outputs and the one-hot target.

A :class:`Dataset` is validated once, where data enters the program (the
``io`` loaders and synthesizers, or a public caller); ``take`` and
:func:`concat_datasets` do not check its rows again. SGD reads rows by index:
:func:`train_users` is the one SGD kernel, training many users at once, each
on its own row set of one pool. :func:`train` is its one-row-set call, and
:func:`split_dataset` returns every user's pool rows, so local training copies
no user data.

Everything that does not change between steps is built once per call: the
table of every user's batch rows (padded with -1) and their labels, the
valid-row count of every batch, the width of every step (the row count of
its widest batch), per-step flags for "some batch is narrower than the step"
and "some batch has one row", and the one-hot rows. A step computes only as
many rows as its widest batch: on equal shards of 50 rows in batches of 32,
every second step is 18 rows wide, not 32. Scores and their gradients are
held user-major, ``(users, rows, classes)``, the forward product's own
output. A call of one row set (the edge's :func:`train`) gathers that row
set's batch rows and one-hot targets 64 steps at a time and steps on 2-D
views of them, with the same expressions as the 3-D step but ``np.dot`` for
``np.matmul``: a gather of the whole call would hold all its epochs' rows at
once, and per-step gathers and a stacked product of one matrix cost more
numpy dispatch than the step's arithmetic.

A user whose batches are all full (as wide as their step) or one row gets
the bits of steps of the tests' reference gradient (``loss_gradient`` in
``tests/helpers.py``) on its batches alone, because:

- the weights are one ``(users, classes, features + 1)`` block, updated in
  place by the elementwise ``w - lr * g``;
- a full batch is one matrix of each stacked product, shaped as its batch
  alone, and gemm gives it that matrix's bits whatever the strides;
  ``np.dot`` of 2-D arrays calls the same gemm (tests pin both);
- numpy takes a one-row product with gemv, and the kernel takes it apart
  for a one-row batch, as a batch of that row alone does; its gradient is
  one product per entry, plus the padding's zeros;
- a one-feature gradient (a two-column product, which gemm does not sum in
  order) is summed row by row in both;
- the sigmoid (:func:`_sigmoid`) is elementwise, and numpy's ``exp`` gives
  an entry the same bits at any offset, length or stride;
- ``take`` reads the -1 padding as the last row of the pool, and padding
  rows get a zero gradient;
- a step whose batches all have its width divides by the scalar width, the
  same float as every user's row count; other steps divide by each user's.

A batch narrower than its step, of more than one row, is computed inside
wider products whose padding adds zeros to its sums. That keeps its bits
only where gemm sums each entry in order, as tests pin up to 17 features;
above that such a user may differ in the last bits (up to about 4e-16 in
the weights after two epochs at 64 to 784 features).

Each randomized call takes one seed, an integer in [0, 2**63), and draws
from one ``np.random.default_rng(seed)``: :func:`split_dataset` the row
orders of all users and :func:`train_users` the epoch orders of the row sets
that train, in index order. Each run of consecutive equal sizes draws in one
``Generator.permuted`` call, the draws of one ``permutation`` per lane.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import SimulationError, ValidationError
from .types import ModelState, _fits, _require_field_types, _require_seed

_RANGE_ATOL = 1e-9
# A one-row-set call gathers the rows of this many steps at once.
_GATHER_STEPS = 64


@dataclass(frozen=True)
class Dataset:
    """Feature matrix in [0, 1] with integer class labels.

    Stored once, read-only, as ``rows`` (samples, features + 1): each feature
    row, then a 1 for the bias. ``features`` is the view ``rows[:, :-1]``.
    """

    features: np.ndarray  # (n_samples, n_features)
    labels: np.ndarray    # (n_samples,)
    n_classes: int

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=float)
        labels = np.asarray(self.labels)
        if labels.size and labels.dtype.kind not in "iu":
            raise ValidationError(f"Dataset: labels must be integers, got dtype {labels.dtype}")
        labels = labels.astype(np.int64)
        if feats.ndim != 2:
            raise ValidationError("Dataset: features must be 2-d (samples, features)")
        if labels.shape != (feats.shape[0],):
            raise ValidationError("Dataset: one label per feature row required")
        _require_field_types(self)
        if self.n_classes < 2:
            raise ValidationError("Dataset: n_classes must be >= 2")
        # NaN fails both comparisons
        if feats.size and not (feats.min() >= -_RANGE_ATOL and feats.max() <= 1.0 + _RANGE_ATOL):
            raise ValidationError("Dataset: features must be normalized to [0, 1]")
        if labels.size and (labels.min() < 0 or labels.max() >= self.n_classes):
            raise ValidationError("Dataset: labels must lie in [0, n_classes)")
        rows = np.empty((feats.shape[0], feats.shape[1] + 1))
        rows[:, :-1] = feats
        rows[:, -1] = 1.0
        rows.flags.writeable = labels.flags.writeable = False
        vars(self).update(rows=rows, features=rows[:, :-1], labels=labels)   # frozen: fill __dict__

    @property
    def sample_count(self) -> int:
        return self.features.shape[0]

    @property
    def n_features(self) -> int:
        return self.features.shape[1]

    def take(self, indices) -> "Dataset":
        """The rows at ``indices`` (an index array, slice or boolean mask), not checked again.

        A slice gives a read-only view that shares this dataset's buffers; an
        index array or a mask gives a copy.
        """
        return _unchecked(self.rows[indices], self.labels[indices], self.n_classes)


def _unchecked(rows: np.ndarray, labels: np.ndarray, n_classes: int) -> Dataset:
    """The ``Dataset`` of ``rows`` (each ending in a 1) and ``labels``, read-only, unchecked."""
    rows.flags.writeable = labels.flags.writeable = False
    out = object.__new__(Dataset)   # frozen: fill its __dict__ as __post_init__ would
    vars(out).update(rows=rows, features=rows[:, :-1], labels=labels, n_classes=n_classes)
    return out


def weight_dim(n_features: int, n_classes: int) -> int:
    """Flattened weight length: one bias-augmented row per class."""
    return (n_features + 1) * n_classes


def _weights(owner: str, w, d: Dataset) -> np.ndarray:
    """``w`` as a float vector, once its length is the weight length of ``d``'s model."""
    w = np.asarray(w, dtype=float)
    dim = weight_dim(d.n_features, d.n_classes)
    if w.shape != (dim,):
        raise ValidationError(f"{owner}: weight length {w.size} does not match {dim}")
    return w


def split_dataset(sizes, delta, seed) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Every user's pool rows as ``(kept_rows, offloaded_rows)``, one index array per user each.

    User ``u`` holds the ``sizes[u]`` pool rows after those of the users
    before it, ordered by the ``u``-th ``permutation`` drawn from
    ``np.random.default_rng(seed)`` (a seed in [0, 2**63)); the first
    round(delta[u] * sizes[u]) of them, ties rounded up, go to the edge.
    A run of consecutive equal sizes draws in one ``permuted`` call.
    """
    if not (isinstance(sizes, np.ndarray) and sizes.dtype.kind in "iu"):
        sizes = list(sizes)
        bad = [u for u, n in enumerate(sizes) if not _fits(n, "int")]
        if bad:
            raise ValidationError(f"split_dataset: user {bad[0]}'s size must be an integer, "
                                  f"got {sizes[bad[0]]!r}")
    sizes, delta = np.asarray(sizes, dtype=np.int64), np.asarray(delta, dtype=float)
    if not sizes.ndim == delta.ndim == 1 or len(sizes) != len(delta):
        raise ValidationError(f"split_dataset: need one size and one delta per user, got "
                              f"{sizes.size} sizes and {delta.size} deltas")
    _require_seed("split_dataset", "seed", seed)
    if (sizes < 0).any():
        raise ValidationError(f"split_dataset: sizes must be >= 0, got {sizes.min()}")
    outside = delta[~((delta >= 0.0) & (delta <= 1.0))]
    if outside.size:
        raise ValidationError(f"split_dataset: delta must lie in [0, 1], got {outside[0]}")
    n_offload = np.floor(delta * sizes + 0.5).astype(np.int64).tolist()
    starts = np.cumsum(sizes) - sizes
    rng = np.random.default_rng(seed)
    rows = []
    for a, b in _runs(sizes):
        block = np.arange(sizes[a]) + starts[a:b, None]    # each user's rows, in order
        rows.extend(rng.permuted(block, axis=1, out=block))
    return [r[k:] for r, k in zip(rows, n_offload)], [r[:k] for r, k in zip(rows, n_offload)]


def _runs(sizes: np.ndarray):
    """``(start, end)`` of every maximal run of equal consecutive entries of 1-d ``sizes``."""
    cuts = (np.flatnonzero(sizes[1:] != sizes[:-1]) + 1).tolist()
    return itertools.pairwise([0, *cuts, len(sizes)] if len(sizes) else [])


def _joined(arrays, empty: np.ndarray) -> np.ndarray:
    """``empty`` and ``arrays`` concatenated, or, when the arrays are consecutive row slices
    that cover one C-contiguous array in order, that array itself."""
    base = arrays[0].base if arrays else None
    if base is not None and base.flags.c_contiguous:
        starts = list(itertools.accumulate((a.nbytes for a in arrays), initial=base.ctypes.data))
        if starts[-1] == base.ctypes.data + base.nbytes and all(
                a.base is base and a.shape[1:] == base.shape[1:] and a.flags.c_contiguous
                and a.ctypes.data == start for a, start in zip(arrays, starts)):
            return base
    return np.concatenate([empty, *arrays])


def concat_datasets(parts, n_classes: int, n_features: int) -> Dataset:
    """The parts in order as one dataset of their checked rows; checks widths and labels only.

    When the parts' ``rows`` (or ``labels``) are consecutive row slices that
    cover one array, in list order, as the users of
    :func:`mecfl.io.synthesize_users` are, the result holds that array, not
    a copy; any other parts are concatenated.
    """
    parts = list(parts)
    if any(p.n_features != n_features for p in parts):
        raise ValidationError(f"concat_datasets: every part must have {n_features} features")
    labels = _joined([p.labels for p in parts], np.zeros(0, dtype=np.int64))
    if labels.size and (labels.min() < 0 or labels.max() >= n_classes):
        raise ValidationError(f"concat_datasets: labels must lie in [0, {n_classes})")
    rows = _joined([p.rows for p in parts], np.empty((0, n_features + 1)))
    return _unchecked(rows, labels, n_classes)


def shuffle_dataset(d: Dataset, seed: int) -> Dataset:
    _require_seed("shuffle_dataset", "seed", seed)
    return d.take(np.random.default_rng(seed).permutation(d.sample_count))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    """``1 / (1 + exp(-z))`` of every entry, computed in place in ``z``, which it returns.

    Negate, exp, add 1, reciprocal: scipy's ``expit`` in the same steps, on
    numpy's ``exp``. Below z = -log(DBL_MAX), about -709.78, ``exp(-z)``
    overflows to inf and the sigmoid is 0 (the true value is below 5.6e-309):
    callers run it under ``np.errstate(over="ignore")``.
    """
    np.negative(z, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


def _scores(w: np.ndarray, rows: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-class sigmoid outputs of ``rows`` (each ending in a 1), shape (samples, classes)."""
    z = rows @ w.reshape(n_classes, -1).T
    with np.errstate(over="ignore"):
        return _sigmoid(z)


def train_users(w_init: np.ndarray, pool: Dataset, rows, epochs: int, lr: float, seed: int,
                batch_size: int = 32) -> np.ndarray:
    """Mini-batch SGD of every user at once, each from ``w_init`` on its own rows.

    User ``u`` trains on the rows ``rows[u]`` of ``pool`` (a 1-d index array,
    in that order), cut into ``batch_size`` chunks after a fresh permutation
    each epoch. The permutations come from one ``np.random.default_rng(seed)``
    (a seed in [0, 2**63)): the row sets that train go in index order, each
    drawing the orders of one ``permutation`` per epoch; a row set that makes
    no step draws nothing. A run of consecutive training row sets of one size
    draws all their epochs in one ``Generator.permuted`` call, the same
    draws. One row set thus trains as :func:`train` does at ``seed``.
    Step k updates every user on its own k-th batch and computes as many
    rows as the widest of those batches, not ``batch_size``; a user out of
    batches (or with no rows at all) keeps its weights. Returns the weights,
    shape (users, dim). A user whose batches are all full or one row, and at
    up to 17 features every user, gets the bits of training alone on those
    orders (see the module docstring for why).
    """
    if not (_fits(epochs, "int") and _fits(batch_size, "int") and lr > 0 and math.isfinite(lr)
            and epochs >= 0 and batch_size >= 1):
        raise ValidationError("train: need a finite lr > 0 and integers epochs >= 0 and "
                              f"batch_size >= 1, got lr={lr!r}, epochs={epochs!r}, "
                              f"batch_size={batch_size!r}")
    w_init = _weights("train", w_init, pool)
    n_classes, n_features = pool.n_classes, pool.n_features
    rows = [np.asarray(r, dtype=np.int64) for r in rows]
    if any(r.ndim != 1 for r in rows):
        raise ValidationError("train: every row set must be a 1-d index array")
    _require_seed("train", "seed", seed)
    flat = np.concatenate([np.zeros(0, dtype=np.int64), *rows])
    if flat.size and (flat.min() < 0 or flat.max() >= pool.sample_count):
        raise ValidationError(f"train: row indices must lie in [0, {pool.sample_count})")
    sizes = np.array([r.size for r in rows], dtype=np.int64)
    per_epoch = -(-sizes // batch_size)
    steps = epochs * per_epoch
    # Slots hold the users that train, by step count, most first, so the
    # users still training at step k are the first active[k] slots.
    order = np.argsort(-steps, kind="stable")[:np.count_nonzero(steps)]
    active = len(rows) - np.searchsorted(np.sort(steps), np.arange(steps.max(initial=0)),
                                         side="right")
    # batches[slot, k] holds the pool rows of that user's k-th batch, padded
    # with -1; each user's epochs are one contiguous block of its slot.
    batches = np.full((len(order), len(active), batch_size), -1, dtype=np.intp)
    # A run of equal sizes in index order takes consecutive slots (stable sort).
    trained, slot_of = np.flatnonzero(steps), np.argsort(order).tolist()
    n_of, k_of, starts = (x[trained].tolist() for x in (sizes, steps, np.cumsum(sizes) - sizes))
    rng = np.random.default_rng(seed)
    for a, b in _runs(sizes[trained]):
        s, m, n = slot_of[a], b - a, n_of[a]
        block = batches[s:s + m, :k_of[a]].reshape(m, epochs, -1)[:, :, :n]
        block[:] = flat[starts[a]:starts[a] + m * n].reshape(m, 1, n)
        rng.permuted(block, axis=2, out=block)
    labels = pool.labels.take(batches)
    pad = batches < 0
    counts = batch_size - pad.sum(axis=2)                   # (slots, steps)
    width = counts.max(axis=0, initial=0)                   # widest batch of each step
    padded = ((counts > 0) & (counts < width)).any(axis=0)
    single = (counts == 1).any(axis=0)
    onehot = np.eye(n_classes)
    w0 = w_init.reshape(n_classes, n_features + 1)
    w = np.tile(w0, (len(order), 1, 1))                     # (slots, classes, features + 1)
    # A call of one row set (the edge's train) gathers its rows and targets
    # _GATHER_STEPS steps at a time and steps on 2-D views of them and of its
    # weights, multiplied with np.dot: a stacked product of one matrix costs
    # more numpy dispatch than the step's own work, and a whole call's gather
    # would hold all its epochs' rows at once.
    one = len(order) == 1
    mm = np.dot if one else np.matmul
    if one:
        wa, wt = w[0], w[0].T                               # views, updated in place
    # One errstate for every step: entering it costs about as much as a
    # one-user step's sigmoid (see _sigmoid for the overflow it is for). It
    # also covers the gradient and the updates, which cannot overflow from
    # finite inputs: p lies in [0, 1], so |dz| <= 1/2 before the divide by the
    # batch size, and a step moves a weight by at most lr * max|x| / 2. Invalid
    # results (inf - inf) still warn.
    with np.errstate(over="ignore"):
        for k, (a, b, pads, singles) in enumerate(zip(active.tolist(), width.tolist(),
                                                      padded.tolist(), single.tolist())):
            if one:
                j = k % _GATHER_STEPS
                if j == 0:
                    xs = pool.rows.take(batches[0, k:k + _GATHER_STEPS], axis=0)
                    ts = onehot.take(labels[0, k:k + _GATHER_STEPS], axis=0)
                x, t = xs[j, :b], ts[j, :b]                      # (b, features + 1)
            else:
                x = pool.rows.take(batches[:a, k, :b], axis=0)   # (a, b, features + 1)
                t = onehot.take(labels[:a, k, :b], axis=0)
                wa = w[:a]
                wt = wa.swapaxes(1, 2)
            # Scores and their gradients are held user-major, (a, b, classes) or
            # (b, classes); each score ends in 1 * bias, and the gradient's last
            # column is the bias's.
            z = mm(x, wt)
            if singles:
                # numpy takes a one-row product with gemv, which sums in another
                # order than gemm: a user whose batch is one row gets the one-row
                # product, as a batch of that row alone does in _scores. z is the
                # product's fresh contiguous array, so its (users, rows, classes)
                # reshape is a view.
                s = np.flatnonzero(counts[:a, k] == 1)
                z.reshape(-1, b, n_classes)[s, 0] = (
                    x.reshape(-1, b, n_features + 1)[s, :1] @ w[s].swapaxes(1, 2))[:, 0]
            p = _sigmoid(z)
            dz = np.subtract(p, t, out=t)   # no later step reads t: dz takes its buffer
            dz *= 2.0
            dz *= p
            dz *= 1.0 - p
            if pads:
                dz /= counts[:a, k, None, None]
                dz[pad[:a, k, :b]] = 0.0
            else:
                dz /= b
            if n_features > 1:
                g = mm(dz.swapaxes(-1, -2), x)
            else:
                # A product with two columns does not sum in gemm's order: sum the
                # rows in order, for the feature and the bias alike.
                g = np.add.reduce(dz[..., None] * x[..., None, :], axis=-3)
            g *= lr
            wa -= g
            del x, t, z, p, dz, g   # free this step's arrays before the next allocates its own
    out = np.tile(w0, (len(rows), 1, 1))
    out[order] = w
    return out.reshape(len(rows), w_init.size)


def train(w_init: np.ndarray, d: Dataset, epochs: int, lr: float, seed: int,
          batch_size: int = 32) -> np.ndarray:
    """Mini-batch SGD on all rows of ``d``: :func:`train_users` for one user."""
    if d.sample_count == 0:
        raise ValidationError("train: dataset has no samples")
    return train_users(w_init, d, [np.arange(d.sample_count)], epochs, lr, seed, batch_size)[0]


def evaluate_loss(w: np.ndarray, d: Dataset) -> float:
    """Mean over samples of the summed per-class squared sigmoid error."""
    if d.sample_count == 0:
        raise ValidationError("evaluate_loss: dataset has no samples")
    errors = _scores(_weights("evaluate_loss", w, d), d.rows, d.n_classes)
    errors[np.arange(d.sample_count), d.labels] -= 1.0   # the one-hot target, in place
    return float(np.sum(np.square(errors, out=errors)) / d.sample_count)


def accuracy(w: np.ndarray, d: Dataset) -> float:
    if d.sample_count == 0:
        raise ValidationError("accuracy: dataset has no samples")
    scores = _scores(_weights("accuracy", w, d), d.rows, d.n_classes)
    return float(np.mean(np.argmax(scores, axis=1) == d.labels))


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
        raise SimulationError(f"aggregate: trained on {trained} samples but the pool holds {total}")
    coeffs = model.local_trainset_sizes / total
    edge_coeff = model.edge_trainset_size / total
    if abs(float(coeffs.sum()) + edge_coeff - 1.0) > 1e-12:
        raise SimulationError("aggregate: coefficients do not sum to 1")
    return coeffs @ model.local_weights + edge_coeff * model.edge_weights
