"""One-vs-rest logistic regression trained with mini-batch SGD.

The model keeps one weight row per class, each row holding the feature
weights plus a trailing bias, flattened into a single vector of length
``(n_features + 1) * n_classes``. The loss is the mean over samples of the
squared error between the per-class sigmoid outputs and the one-hot target.

A :class:`Dataset` is validated once, where data enters the program (the
``io`` loaders and synthesizers, or a public caller). SGD then reads rows by
index from it. :func:`train_users` is the one SGD kernel: it trains many
users at once, each on its own row set of one pool, one mini-batch step for
all users at a time. :func:`train` is its one-row-set call, and
:func:`split_dataset` returns row indices, so local training copies no user
data.

The kernel gives every user the same bits as :func:`loss_gradient` steps on
that user's batches alone. Everything that does not change between steps is
built once per call: the table of every user's batch rows (padded with -1)
and their labels, the valid-row count of every batch, the width of every
step (the row count of its widest batch), per-step flags for "some batch is
narrower than the step" and "some batch has one row", and the one-hot rows.
A step computes only as many rows as its widest batch: on equal shards of
50 rows in batches of 32, every second step is 18 rows wide, not 32.
The bits match because:

- the feature weights and the biases are held apart, as ``(users, classes,
  features)`` and ``(users, classes)`` blocks, and updated in place;
  ``w - lr * g`` is elementwise, so the layout does not change its bits;
- products stay ``@``, one gemm per user, which sums each entry in the same
  order whatever the row stride; a batch of one row gets numpy's one-row
  product (gemv) as a one-user call does, and a one-feature product, which
  numpy would also take with gemv, is summed row by row in both;
- score rows are independent, so a step computes each user's rows as its
  batch alone would, however wide the step;
- the sigmoid (:func:`_sigmoid`) is elementwise, and numpy's ``exp`` gives
  an entry the same bits at any offset, length or stride of the array;
  below z = -log(DBL_MAX), about -709.78, ``exp(-z)`` overflows and the
  sigmoid is 0, so the kernel silences that overflow for the whole call;
- ``take`` reads the -1 padding as the last row of the pool; padding rows
  get a zero gradient, and a zero added to a sum leaves it unchanged;
- a step whose batches all have its width divides by the scalar width, the
  same float as every user's row count; other steps divide by each user's
  count;
- the bias gradient sums the rows in order, as ``sum(axis=0)`` does.

A round draws two random streams per user, one for its split and one for
its epoch orders, each that of ``np.random.default_rng(seed)``. Building a
generator that way runs numpy's ``SeedSequence`` hash once per seed, which
costs more than the user's split itself. :func:`_generators` gives the same
streams for many seeds at once: it hashes all seeds in one vectorized pass
of ``SeedSequence``'s mixing (O'Neill's ``seed_seq_fe``), derives PCG64's
state from the hash as numpy does, and sets it on one reused generator.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import EmptyDataset, InconsistentSizes, ValidationError
from .types import ModelState, _SEED_LIMIT, _is_seed, _require_seed

_RANGE_ATOL = 1e-9
# Fewer seeds than this get one default_rng each: the vectorized hash of
# _generators has a fixed cost of about 10 default_rng calls (measured
# break-even 9-10 seeds, each drawing a permutation of 50).
_VECTOR_SEEDS_MIN = 12

# numpy's SeedSequence (pool of 4 uint32 words) and PCG64 seeding constants.
_M32 = 0xFFFFFFFF
_M128 = (1 << 128) - 1
_PCG64_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_SHIFT = np.uint32(16)


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    """Constants of ``count`` successive hash calls, one per row: call k uses rows k and k + 1."""
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _M32)
    return np.array(out, dtype=np.uint32)[:, None]


_MIX_CONST = _hash_constants(0x43B0D7E5, 0x931E8875, 16)    # 4 to fill, 12 to mix the pool
_STATE_CONST = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)   # 8 state words


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


def split_dataset(d: Dataset, delta: float,
                  seed: int | np.random.Generator) -> tuple[np.ndarray, np.ndarray]:
    """Uniform random partition of the rows of ``d`` as ``(kept_rows, offloaded_rows)``.

    round(delta * n) row indices go to the edge; ties round half-up and the
    remainder stays local, so the two index arrays always partition
    ``range(n)`` exactly. ``seed`` is an integer or a ``Generator``, which is
    drawn from as given: a generator with the stream of
    ``np.random.default_rng(s)`` gives the same split as the seed ``s``.
    Deterministic for a fixed seed, an integer in [0, 2**63).
    """
    if not 0.0 <= delta <= 1.0:
        raise ValidationError(f"split_dataset: delta must lie in [0, 1], got {delta}")
    if not isinstance(seed, np.random.Generator):
        _require_seed("split_dataset", "seed", seed)
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
    _require_seed("shuffle_dataset", "seed", seed)
    return d.take(np.random.default_rng(seed).permutation(d.sample_count))


def _seed_array(seeds) -> np.ndarray:
    """The seeds as uint64; ValidationError names the first that is no integer in [0, 2**63)."""
    if isinstance(seeds, np.ndarray) and seeds.ndim == 1 and seeds.dtype.kind in "iu":
        ok = (seeds >= 0) & (seeds < _SEED_LIMIT)
    else:
        seeds = list(seeds)
        ok = np.array([_is_seed(s) for s in seeds], dtype=bool)
    if not ok.all():
        i = int(np.argmin(ok))
        raise ValidationError(f"train: seed {i} must be an integer in [0, 2**63), "
                              f"got {seeds[i]!r}")
    return np.array(seeds, dtype=np.uint64)


def _hashmix(value: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """SeedSequence's hash of each row of ``value`` with the constants of its call."""
    value = (value ^ consts[:-1]) * consts[1:]
    value ^= value >> _SHIFT
    return value


def _pcg64_states(seeds: np.ndarray) -> list[tuple[int, int]]:
    """``(state, inc)`` of ``PCG64(s)`` for each uint64 seed ``s`` below 2**64.

    ``SeedSequence(s)`` fills its pool of 4 uint32 words by hashing the low
    and the high word of ``s`` and two zeros (below 2**32 the high word is
    0, which is what numpy hashes past the end of a one-word entropy), then
    mixes every word into the 3 others in turn, and
    ``generate_state(4, uint64)`` hashes the pool twice over. Each step is
    one uint32 op on all seeds; uint32 products wrap modulo 2**32, as in
    numpy's C code. ``pcg64_set_seed`` then takes the words as (initstate,
    initseq), high word first, and steps the generator twice from state 0.
    """
    pool = np.zeros((4, seeds.size), dtype=np.uint32)
    pool[0] = seeds & np.uint64(_M32)
    pool[1] = seeds >> np.uint64(32)
    pool = _hashmix(pool, _MIX_CONST[:5])
    for src in range(4):
        dst = [d for d in range(4) if d != src]
        hashed = _hashmix(pool[src], _MIX_CONST[4 + 3 * src:8 + 3 * src])
        mixed = pool[dst] * _MIX_L - hashed * _MIX_R
        mixed ^= mixed >> _SHIFT
        pool[dst] = mixed
    words = _hashmix(np.concatenate([pool, pool]), _STATE_CONST).astype(np.uint64)
    state_words = (words[0::2] | words[1::2] << np.uint64(32)).tolist()
    states = []
    for high, low, seq_high, seq_low in zip(*state_words):
        inc = ((seq_high << 64 | seq_low) << 1 | 1) & _M128
        states.append((((inc + (high << 64 | low)) * _PCG64_MULT + inc) & _M128, inc))
    return states


def _generators(seeds):
    """For each seed ``s`` in turn, a generator with the stream of ``np.random.default_rng(s)``.

    Seeds are integers in [0, 2**63). From ``_VECTOR_SEEDS_MIN`` seeds on,
    every item is one reused ``Generator``, set to the next seed's state:
    draw from it before taking the next item.
    """
    seeds = np.asarray(seeds, dtype=np.uint64)
    if seeds.size < _VECTOR_SEEDS_MIN:
        for s in seeds.tolist():
            yield np.random.default_rng(s)
        return
    bit_gen = np.random.PCG64(0)
    gen = np.random.Generator(bit_gen)
    inner: dict = {}
    state = {"bit_generator": "PCG64", "state": inner, "has_uint32": 0, "uinteger": 0}
    for inner["state"], inner["inc"] in _pcg64_states(seeds):
        bit_gen.state = state
        yield gen


def _logits(w: np.ndarray, features: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-class scores before the sigmoid, shape (samples, classes)."""
    rows = w.reshape(n_classes, -1)
    return features @ rows[:, :-1].T + rows[:, -1]


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


def _scores(w: np.ndarray, features: np.ndarray, n_classes: int) -> np.ndarray:
    """Per-class sigmoid outputs, shape (samples, classes)."""
    z = _logits(w, features, n_classes)
    with np.errstate(over="ignore"):
        return _sigmoid(z)


def loss_gradient(w: np.ndarray, features: np.ndarray, labels: np.ndarray,
                  n_classes: int) -> np.ndarray:
    """Gradient of the mean squared sigmoid error over the given rows.

    ``w`` is (dim,), ``features`` (rows, features) and ``labels`` (rows,).
    :func:`train_users` runs the same expression for every user at once and
    gives the same bits as one call per batch.
    """
    if len(labels) == 0:
        raise EmptyDataset("loss_gradient: no rows")
    probs = _scores(w, features, n_classes)
    dz = 2.0 * (probs - np.eye(n_classes)[labels]) * probs * (1.0 - probs) / len(labels)
    if features.shape[1] > 1:
        grad_feat = dz.T @ features
    else:
        grad_feat = (dz * features).sum(axis=0)[:, None]   # rows in order, not gemv
    return np.concatenate([grad_feat, dz.sum(axis=0)[:, None]], axis=1).ravel()


def train_users(w_init: np.ndarray, pool: Dataset, rows, epochs: int, lr: float, seeds,
                batch_size: int = 32) -> np.ndarray:
    """Mini-batch SGD of every user at once, each from ``w_init`` on its own rows.

    User ``u`` trains on the rows ``rows[u]`` of ``pool`` (a 1-d index array,
    in that order) with the batches that :func:`train` would draw for them
    with seed ``seeds[u]``: a fresh ``default_rng(seeds[u]).permutation``
    each epoch, cut into ``batch_size`` chunks. All epochs of a user are
    drawn in one ``Generator.permuted`` call, which gives the same orders.
    The generators have the streams of ``default_rng(seeds[u])``; from
    ``_VECTOR_SEEDS_MIN`` training users on they come from one vectorized
    hash of all seeds (:func:`_generators`), whose fixed cost is about that
    of 10 ``default_rng`` calls, so fewer users call ``default_rng`` each.
    Step k updates every user on its own k-th batch and computes as many
    rows as the widest of those batches, not ``batch_size``; a user out of
    batches (or with no rows at all) keeps its weights. Returns the weights,
    shape (users, dim), with the same bits as training each user alone (see
    the module docstring for why). Needs one seed per row set, each an
    integer in [0, 2**63).
    """
    if not (lr > 0 and epochs >= 0 and batch_size >= 1):
        raise ValidationError("train: need lr > 0, epochs >= 0 and batch_size >= 1, got "
                              f"lr={lr}, epochs={epochs}, batch_size={batch_size}")
    w_init = np.asarray(w_init, dtype=float)
    n_classes, n_features = pool.n_classes, pool.n_features
    dim = weight_dim(n_features, n_classes)
    if w_init.shape != (dim,):
        raise ValidationError(f"train: weight length {w_init.size} does not match {dim}")
    rows = [np.asarray(r, dtype=np.int64) for r in rows]
    if len(seeds) != len(rows) or any(r.ndim != 1 for r in rows):
        raise ValidationError(f"train: need one seed per row set and 1-d row sets, got "
                              f"{len(seeds)} seeds for {len(rows)} row sets")
    seeds = _seed_array(seeds)
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
    for slot, (u, gen) in enumerate(zip(order, _generators(seeds[order]))):
        block = batches[slot, :steps[u]].reshape(epochs, -1)[:, :sizes[u]]
        block[:] = rows[u]
        gen.permuted(block, axis=1, out=block)
    labels = pool.labels.take(batches)
    pad = batches < 0
    counts = batch_size - pad.sum(axis=2)                   # (slots, steps)
    width = counts.max(axis=0, initial=0)                   # widest batch of each step
    padded = ((counts > 0) & (counts < width)).any(axis=0)
    single = (counts == 1).any(axis=0) & (width > 1)
    onehot = np.eye(n_classes)
    w0 = w_init.reshape(n_classes, n_features + 1)
    w_feat = np.tile(w0[:, :-1], (len(order), 1, 1))        # (slots, classes, features)
    w_bias = np.tile(w0[:, -1], (len(order), 1))            # (slots, classes)
    # One errstate for every step: entering it costs about as much as a
    # one-user step's sigmoid (see _sigmoid for the overflow it is for). It
    # also covers the gradient and the updates, which cannot overflow from
    # finite inputs: p lies in [0, 1], so |dz| <= 1/2 before the divide by the
    # batch size, and a step moves a weight by at most lr * max|x| / 2. Invalid
    # results (inf - inf) still warn.
    with np.errstate(over="ignore"):
        for k, (a, b, pads, singles) in enumerate(zip(active.tolist(), width.tolist(),
                                                      padded.tolist(), single.tolist())):
            x = pool.features.take(batches[:a, k, :b], axis=0)  # (a, b, features)
            wf, wb = w_feat[:a], w_bias[:a]
            # Scores and their gradients are held batch-major, (b, a, classes), so
            # the bias add and the row sum run along one contiguous a * classes axis.
            z = np.empty((b, a, n_classes))
            np.matmul(x, wf.swapaxes(1, 2), out=z.swapaxes(0, 1))
            z += wb
            if singles:
                # numpy takes a one-row product with gemv, which sums in another
                # order than gemm: a user whose batch is one row gets the one-row
                # product, so a padded batch gives the same bits as its row alone.
                s = np.flatnonzero(counts[:a, k] == 1)
                z[0, s] = (x[s, :1] @ wf[s].swapaxes(1, 2))[:, 0] + wb[s]
            p = _sigmoid(z)
            dz = 2.0 * (p - onehot.take(labels[:a, k, :b].T, axis=0)) * p * (1.0 - p)
            if pads:
                dz /= counts[:a, k, None]
                dz[pad[:a, k, :b].T] = 0.0
            else:
                dz /= b
            if n_features > 1:
                wf -= lr * (dz.transpose(1, 2, 0) @ x)
            else:
                # numpy would take a one-feature product with gemv, whose sum order
                # depends on the row count and the stride: sum the rows in order.
                wf -= lr * np.add.reduce(dz * x.swapaxes(0, 1), axis=0)[..., None]
            wb -= lr * np.add.reduce(dz, axis=0)
            del x, z, p, dz   # free this step's arrays before the next step allocates its own
    out = np.tile(w0, (len(rows), 1, 1))
    out[order, :, :-1] = w_feat
    out[order, :, -1] = w_bias
    return out.reshape(len(rows), dim)


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
