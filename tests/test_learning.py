import collections
import math
import re
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.special import expit

from mecfl import io, learning
from mecfl.errors import SimulationError, ValidationError
from mecfl.io import ExperimentSpec
from mecfl.learning import (
    Dataset,
    _scores,
    _sigmoid,
    aggregate,
    concat_datasets,
    evaluate_loss,
    shuffle_dataset,
    split_dataset,
    train,
    train_users,
    weight_dim,
)
from mecfl.types import ModelState

from helpers import CountingGenerator, loss_gradient


def random_dataset(rng, n=40, n_features=3, n_classes=2):
    return Dataset(rng.uniform(0, 1, (n, n_features)),
                   rng.integers(0, n_classes, n), n_classes)


def assert_partition(kept, offloaded, n):
    assert np.array_equal(np.sort(np.concatenate([kept, offloaded])), np.arange(n))


def split_one(n, delta, seed):
    """``(kept_rows, offloaded_rows)`` of one user holding ``n`` rows."""
    kept, offloaded = split_dataset([n], [delta], seed)
    return kept[0], offloaded[0]


def test_split_zero_delta_keeps_everything():
    kept, offloaded = split_one(40, 0.0, seed=1)
    assert offloaded.size == 0
    assert_partition(kept, offloaded, 40)


def test_split_full_delta_offloads_everything():
    kept, offloaded = split_one(40, 1.0, seed=1)
    assert kept.size == 0
    assert_partition(kept, offloaded, 40)


def test_split_half_of_1200_is_600_600_disjoint():
    kept, offloaded = split_one(1200, 0.5, seed=5)
    assert kept.size == 600
    assert offloaded.size == 600
    assert_partition(kept, offloaded, 1200)


def test_split_reproducible_and_seed_sensitive():
    kept_a, a = split_one(100, 0.3, seed=7)
    kept_b, b = split_one(100, 0.3, seed=7)
    _, c = split_one(100, 0.3, seed=8)
    assert np.array_equal(a, b) and np.array_equal(kept_a, kept_b)
    assert not np.array_equal(a, c)


def test_split_complement_swaps_cardinalities():
    rng = np.random.default_rng(4)
    assert split_one(101, 0.5, seed=1)[1].size == 51   # 50.5 rows round half-up
    for delta in rng.uniform(0.01, 0.99, 20):
        direct_kept, direct_offloaded = split_one(101, delta, seed=1)
        flipped_kept, flipped_offloaded = split_one(101, 1.0 - delta, seed=1)
        assert direct_offloaded.size == math.floor(delta * 101 + 0.5)
        assert direct_offloaded.size == flipped_kept.size
        assert direct_kept.size == flipped_offloaded.size
        assert_partition(direct_kept, direct_offloaded, 101)


def test_split_rejects_bad_delta():
    for delta in (1.5, -0.1, np.nan):
        with pytest.raises(ValidationError, match=r"^split_dataset: delta must lie in \[0, 1\]"):
            split_dataset([40, 40], [0.5, delta], 0)


@pytest.mark.parametrize("sizes, delta, seeds, message", [
    ([40, 40], [0.5], [0, 1], "need one size and one delta per user, got 2 sizes and 1 deltas"),
    ([40], [0.5, 0.5], [0, 1], "need one size and one delta per user, got 1 sizes and 2 deltas"),
    ([40, 40], [[0.5, 0.5]], [0], "need one size and one delta per user"),
    ([40, -1, 3], [0.5, 0.5, 0.5], [0, 1, 2], "sizes must be >= 0, got -1"),
    # a non-integer size used to be truncated, a bool taken as 1
    ([2.5], [0.5], [0], "user 0's size must be an integer, got 2.5$"),
    ([40, 3, True], [0.5, 0.5, 0.5], [0, 1, 2], "user 2's size must be an integer, got True$"),
    (np.array([40.0, 3.0]), [0.5, 0.5], [0, 1], "user 0's size must be an integer, got "),
])
def test_split_rejects_mismatched_lengths_and_negative_sizes(sizes, delta, seeds, message):
    # refused at every seed given, before anything is drawn
    for seed in seeds:
        with pytest.raises(ValidationError, match=f"^split_dataset: {message}"):
            split_dataset(sizes, delta, seed)


@pytest.mark.parametrize("seed", [-1, 1.5, 2**63, True, np.int64(-1)])
@pytest.mark.parametrize("call", [lambda d, seed: split_dataset([d.sample_count], [0.5], seed),
                                  lambda d, seed: shuffle_dataset(d, seed)],
                         ids=["split_dataset", "shuffle_dataset"])
def test_split_and_shuffle_reject_seeds_outside_0_to_2_63(call, seed):
    # numpy's own ValueError (-1, 2**63) and TypeError (1.5) do not leak, and a
    # bool is no seed, though True == 1
    d = random_dataset(np.random.default_rng(0), n=4)
    with pytest.raises(ValidationError, match=rf"^(split|shuffle)_dataset: seed must be an "
                                              rf"integer in \[0, 2\*\*63\), "
                                              rf"got {re.escape(repr(seed))}$"):
        call(d, seed)


@pytest.mark.parametrize("users", [
    5, 40,                                        # that many users of random sizes
    # synthesize_users' sizes: base + 1 for the first `extra` users
    pytest.param(50 + (np.arange(800) < 37), id="synthesized"),
    pytest.param(np.tile([49, 50, 50, 49, 49, 50], 40), id="interleaved-49-50"),
    pytest.param(np.array([0, 0, 3, 3, 0, 0, 0, 3, 5, 0]), id="runs-of-zeros"),
])
def test_split_equals_each_users_permutation_after_its_offset(users):
    # user u's rows are ordered by the u-th permutation of one generator,
    # also where a run of equal sizes draws in one permuted call; a user
    # without rows (size 0) draws nothing
    n_users = users if isinstance(users, int) else len(users)
    rng = np.random.default_rng(n_users)
    sizes = rng.integers(0, 60, n_users) if isinstance(users, int) else users
    delta = rng.uniform(0.0, 1.0, n_users)
    delta[:3] = 0.0, 1.0, 0.5
    if isinstance(users, int):
        sizes[2] = 7                              # 3.5 rows: a tie, rounded up
        sizes[3] = 0
    seed = 2**63 - n_users                        # near the top of the seed range
    kept, offloaded = split_dataset(sizes, delta, seed)
    draws = np.random.default_rng(seed)
    start = 0
    for u in range(n_users):
        perm = start + draws.permutation(sizes[u])
        n_offload = math.floor(float(delta[u]) * int(sizes[u]) + 0.5)
        assert np.array_equal(offloaded[u], perm[:n_offload])
        assert np.array_equal(kept[u], perm[n_offload:])
        start += sizes[u]
    if isinstance(users, int):
        assert offloaded[2].size == 4


@pytest.mark.parametrize("sizes", [[5, 0, 7], [0, 0], []],
                         ids=["an-empty-part", "all-empty", "no-parts"])
def test_concat_equals_the_validating_constructor(sizes):
    rng = np.random.default_rng(8)
    parts = [random_dataset(rng, n=n, n_features=3, n_classes=4) for n in sizes]
    pooled = concat_datasets(parts, 4, 3)
    expected = Dataset(np.concatenate([np.zeros((0, 3)), *(p.features for p in parts)]),
                       np.concatenate([np.zeros(0, dtype=np.int64), *(p.labels for p in parts)]),
                       4)
    assert pooled.n_classes == 4
    for name in ("rows", "features", "labels"):
        got, want = getattr(pooled, name), getattr(expected, name)
        assert (got.dtype, got.shape, got.strides) == (want.dtype, want.shape, want.strides)
        assert got.tobytes() == want.tobytes()
        assert not got.flags.writeable and not want.flags.writeable


def _users(seed, user_count=4, samples_per_user=5):
    """A synthesized population's datasets, views of one shuffled pool."""
    return io.synthesize_users(ExperimentSpec(seed=seed, user_count=user_count,
                                              samples_per_user=samples_per_user))[1]


def test_concat_rejects_a_wrong_width_or_an_out_of_range_label():
    rng = np.random.default_rng(9)
    good = random_dataset(rng, n=4, n_features=3, n_classes=4)
    narrow = random_dataset(rng, n=0, n_features=2, n_classes=4)
    with pytest.raises(ValidationError, match="every part must have 3 features"):
        concat_datasets([good, narrow], 4, 3)
    three = Dataset(np.full((2, 3), 0.5), [0, 3], 4)
    with pytest.raises(ValidationError, match=r"labels must lie in \[0, 3\)"):
        concat_datasets([good, three], 3, 3)
    pooled = _users(3)   # parts that tile one pool are not copied, and checked all the same
    assert max(d.labels.max() for d in pooled) == 3
    with pytest.raises(ValidationError, match=r"labels must lie in \[0, 3\)"):
        concat_datasets(pooled, 3, 16)


def test_concat_of_a_synthesized_population_is_its_pool_not_a_copy():
    datasets = _users(0, user_count=50, samples_per_user=1200)
    tracemalloc.start()
    try:
        pooled = concat_datasets(datasets, 4, 16)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"concat_datasets allocated {peak / 2**20:.1f} MB at its peak"
    for name in ("rows", "features", "labels"):
        got = getattr(pooled, name)
        assert all(np.shares_memory(got, getattr(d, name)) for d in datasets)
        assert np.array_equal(got, np.concatenate([getattr(d, name) for d in datasets]))
        assert not got.flags.writeable


def _takes_by_index(datasets):
    pool = concat_datasets(datasets, 4, 16)
    ends = np.cumsum([d.sample_count for d in datasets])
    return [pool.take(np.arange(end - d.sample_count, end)) for d, end in zip(datasets, ends)]


@pytest.mark.parametrize("parts", [
    lambda a, b: [a[1], a[0], a[2], a[3]],
    lambda a, b: [a[0], a[2], a[3]],
    lambda a, b: a[:3],
    lambda a, b: a[1:],
    lambda a, b: [a[0], a[1], b[2], b[3]],
    lambda a, b: _takes_by_index(a),
], ids=["out-of-order", "a-gap", "first-users-only", "last-users-only", "two-bases",
        "index-array-takes"])
def test_concat_copies_parts_that_do_not_tile_one_pool(parts):
    parts = parts(_users(1), _users(2))
    pooled = concat_datasets(parts, 4, 16)
    for name in ("rows", "labels"):
        got = getattr(pooled, name)
        assert np.array_equal(got, np.concatenate([getattr(p, name) for p in parts]))
        assert not any(np.shares_memory(got, getattr(p, name)) for p in parts)


def test_train_zero_epochs_returns_initial_weights():
    d = random_dataset(np.random.default_rng(5))
    w0 = np.random.default_rng(6).normal(size=weight_dim(d.n_features, d.n_classes))
    out = train(w0, d, epochs=0, lr=0.1, seed=0)
    assert np.array_equal(out, w0)


def _scalar_oracle_step(w, x, label, n_classes, lr):
    # plain-python gradient step on one sample, one feature, bias included
    new = list(w)
    per_class = 2
    for c in range(n_classes):
        z = w[c * per_class] * x + w[c * per_class + 1]
        s = 1.0 / (1.0 + math.exp(-z))
        target = 1.0 if c == label else 0.0
        gz = 2.0 * (s - target) * s * (1.0 - s)
        new[c * per_class] -= lr * gz * x
        new[c * per_class + 1] -= lr * gz
    return new


def test_train_single_sample_matches_scalar_descent_oracle():
    d = Dataset([[1.0]], [1], n_classes=2)
    w = np.zeros(weight_dim(1, 2))
    oracle = [0.0] * 4
    steps = 3000
    out = train(w, d, epochs=steps, lr=0.5, seed=0, batch_size=1)
    for _ in range(steps):
        oracle = _scalar_oracle_step(oracle, 1.0, 1, 2, 0.5)
    assert np.allclose(out, oracle, rtol=1e-12, atol=1e-12)
    # converged output: the hot class sigmoid approaches the label
    hot = 1.0 / (1.0 + math.exp(-(out[2] + out[3])))
    cold = 1.0 / (1.0 + math.exp(-(out[0] + out[1])))
    assert abs(hot - 1.0) <= 0.05
    assert abs(cold - 0.0) <= 0.05


def test_gradient_matches_central_finite_differences():
    rng = np.random.default_rng(7)
    d = random_dataset(rng, n=12, n_features=4, n_classes=3)
    w = rng.normal(scale=0.5, size=weight_dim(4, 3))
    grad = loss_gradient(w, d.features, d.labels, d.n_classes)
    h = 1e-6
    fd = np.empty_like(grad)
    for k in range(w.size):
        bump = np.zeros_like(w)
        bump[k] = h
        fd[k] = (evaluate_loss(w + bump, d) - evaluate_loss(w - bump, d)) / (2 * h)
    assert np.linalg.norm(grad - fd) <= 1e-5 * np.linalg.norm(grad)


def test_sgd_step_is_first_order_in_lr():
    rng = np.random.default_rng(8)
    d = random_dataset(rng, n=64, n_features=3, n_classes=2)
    w0 = rng.normal(size=weight_dim(3, 2))
    lr = 1e-8
    batch = 16
    out = train(w0, d, epochs=1, lr=lr, seed=3, batch_size=batch)
    n_batches = math.ceil(d.sample_count / batch)
    # at lr -> 0 the weights barely move, so the initial gradient bounds each step
    max_grad = max(
        np.linalg.norm(loss_gradient(w0, d.features[s:s + batch], d.labels[s:s + batch],
                                     d.n_classes))
        for s in range(0, 64, batch)
    )
    assert np.linalg.norm(out - w0) <= lr * n_batches * max_grad * 1.5


def test_train_loss_decreases():
    rng = np.random.default_rng(9)
    feats = rng.uniform(0, 1, (200, 4))
    labels = (feats[:, 0] > 0.5).astype(int)
    d = Dataset(feats, labels, 2)
    w0 = np.zeros(weight_dim(4, 2))
    w1 = train(w0, d, epochs=20, lr=0.5, seed=0)
    assert evaluate_loss(w1, d) < evaluate_loss(w0, d)


def test_train_rejects_empty_dataset():
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    with pytest.raises(ValidationError, match="train: dataset has no samples"):
        train(np.zeros(weight_dim(2, 2)), empty, epochs=1, lr=0.1, seed=0)


def test_loss_gradient_rejects_no_rows():
    with pytest.raises(ValidationError, match="loss_gradient: no rows"):
        loss_gradient(np.zeros(weight_dim(2, 2)), np.zeros((0, 2)), np.zeros(0, dtype=int), 2)


@pytest.mark.parametrize("epochs, lr, batch_size", [
    (1, 0.1, 0),      # batch_size < 1 used to escape as a bare ValueError from range()
    (1, 0.1, -3),
    (-1, 0.1, 8),     # epochs < 0 used to return w_init silently
    (1, 0.0, 8),
    # a float or bool count used to escape as a bare TypeError from slicing
    (1.0, 0.1, 8),
    (True, 0.1, 8),
    (1, 0.1, 8.0),
    (1, 0.1, True),
    (1, math.inf, 8),  # used to return NaN weights with a RuntimeWarning
    (1, math.nan, 8),
])
def test_train_rejects_bad_arguments(epochs, lr, batch_size):
    # train_users makes the check, for train and every lockstep call
    d = random_dataset(np.random.default_rng(14))
    with pytest.raises(ValidationError, match=r"^train: need a finite lr > 0 and integers"):
        train(np.zeros(weight_dim(d.n_features, d.n_classes)), d, epochs=epochs, lr=lr,
              seed=0, batch_size=batch_size)


def _reference_train(w_init, d, epochs, lr, seed, batch_size):
    # the per-batch loop train() replaced: one validated Dataset per mini-batch;
    # a Generator for seed passes through default_rng, so calls can share one
    w = np.array(w_init, dtype=float)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(d.sample_count)
        for start in range(0, d.sample_count, batch_size):
            batch = d.take(order[start:start + batch_size])
            w -= lr * loss_gradient(w, batch.features, batch.labels, batch.n_classes)
    return w


@pytest.mark.parametrize("n, batch_size, epochs, n_features", [
    pytest.param(64, 16, 3, 5, id="64-16"),     # whole batches only
    pytest.param(50, 16, 3, 5, id="50-16"),     # ragged last batch of 2
    pytest.param(7, 32, 3, 5, id="7-32"),       # batch_size > n: one batch per epoch
    pytest.param(1, 1, 3, 5, id="1-1"),
    # every last batch is one row; one-row-set calls gather 64 steps at a time
    pytest.param(249, 4, 1, 5, id="63-steps"),
    pytest.param(253, 4, 1, 5, id="64-steps"),
    pytest.param(257, 4, 1, 5, id="65-steps"),
    pytest.param(513, 4, 1, 5, id="129-steps"),
    pytest.param(169, 4, 3, 5, id="129-steps-over-3-epochs"),
    pytest.param(257, 4, 1, 1, id="65-steps-one-feature"),
    pytest.param(2049, 32, 1, 16, id="65-steps-bench-shape"),
])
def test_train_equals_per_batch_dataset_loop(n, batch_size, epochs, n_features):
    rng = np.random.default_rng(15)
    d = random_dataset(rng, n=n, n_features=n_features, n_classes=3)
    w0 = rng.normal(size=weight_dim(n_features, 3))
    out = train(w0, d, epochs=epochs, lr=0.3, seed=21, batch_size=batch_size)
    assert np.array_equal(out, _reference_train(w0, d, epochs, 0.3, 21, batch_size))


def test_train_gathers_its_batches_a_chunk_at_a_time():
    # 30,000 rows x 5 epochs: gathering the call's batches at once would hold
    # about 28 MB of rows and one-hot targets; the batch table itself is 2.4 MB
    rng = np.random.default_rng(30)
    d = Dataset(rng.uniform(0, 1, (30_000, 16)), rng.integers(0, 4, 30_000), 4)
    w0 = np.zeros(weight_dim(16, 4))
    tracemalloc.start()
    try:
        train(w0, d, epochs=5, lr=0.1, seed=3, batch_size=32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6 * 2**20, f"train allocated {peak / 2**20:.1f} MB at its peak"


def test_train_builds_no_dataset(monkeypatch):
    d = random_dataset(np.random.default_rng(16), n=100)
    built = []
    original = Dataset.__post_init__

    def counting(self):
        built.append(self)
        original(self)

    monkeypatch.setattr(Dataset, "__post_init__", counting)
    train(np.zeros(weight_dim(d.n_features, d.n_classes)), d, epochs=2, lr=0.1, seed=0,
          batch_size=8)
    assert built == []


def _mixed_users(rng, sizes=(64, 50, 7, 0, 1, 1, 17, 33, 49), n_features=8, n_classes=3):
    # by default one call mixing whole batches (64), a ragged last batch (50),
    # n < batch (7), no rows, and n = 1 or a last batch of one row (1, 17, 33,
    # 49), which numpy multiplies by another BLAS routine than a batch of several rows
    pool = random_dataset(rng, n=200, n_features=n_features, n_classes=n_classes)
    rows = [rng.choice(200, size=n, replace=False) for n in sizes]
    return (pool, rows, int(rng.integers(2**31)),
            rng.normal(size=weight_dim(n_features, n_classes)))


def _reference_weights(w0, pool, rows, epochs, batch_size, seed, draw_for_empty=False):
    # every user trained alone, in index order, on the epoch orders one shared
    # default_rng(seed) gives; a user without rows draws nothing, unless
    # draw_for_empty has it draw a permutation of the largest row count, as a
    # padded table of every user's rows would
    shared = np.random.default_rng(seed)
    widest = max(r.size for r in rows)
    out = []
    for r in rows:
        if r.size:
            out.append(_reference_train(w0, pool.take(r), epochs, 0.3, shared, batch_size))
        else:
            if draw_for_empty:
                shared.permutation(widest)
            out.append(w0)
    return out


def _assert_equals_reference(rng, epochs=3, batch_size=16, **users):
    pool, rows, seed, w0 = _mixed_users(rng, **users)
    out = train_users(w0, pool, rows, epochs=epochs, lr=0.3, seed=seed, batch_size=batch_size)
    assert out.shape == (len(rows), w0.size)
    expected = _reference_weights(w0, pool, rows, epochs, batch_size, seed)
    for u, r in enumerate(rows):
        assert np.array_equal(out[u], expected[u]), f"user {u} with {r.size} rows"


def test_train_users_equals_per_user_reference_loop():
    _assert_equals_reference(np.random.default_rng(17))


@pytest.mark.parametrize("sizes, batch_size, n_features, n_classes, epochs", [
    pytest.param((9, 1, 0, 4), 1, 8, 3, 3, id="batch-1"),
    pytest.param((64, 32, 16, 0, 48), 16, 8, 3, 3, id="no-padded-step"),
    pytest.param((64, 50, 7, 1, 17), 16, 1, 3, 3, id="one-feature"),
    pytest.param((64, 50, 7, 1, 17), 16, 8, 2, 3, id="two-classes"),
    pytest.param((64, 50, 7, 1, 17), 16, 8, 3, 1, id="one-epoch"),
    pytest.param((64, 50, 7, 1, 17), 16, 8, 3, 5, id="five-epochs"),
    pytest.param((50, 50, 50), 32, 8, 3, 3, id="short-step-no-padding"),
    pytest.param((50, 49, 45), 32, 8, 3, 3, id="short-batches-of-different-widths"),
    pytest.param((33, 33), 32, 8, 3, 3, id="one-row-step-of-all-users"),
    pytest.param((50,), 32, 8, 3, 3, id="one-row-set-short-last-batch"),
    # batch_size 1: every step is one row wide, so every user gets the one-row
    # product over its features plus the bias, not the gemm over the ones column
    pytest.param((9, 1, 0, 4), 1, 5, 3, 3, id="steps-one-row-wide-5-features"),
    pytest.param((9, 1, 0, 4), 1, 16, 3, 3, id="steps-one-row-wide-16-features"),
    pytest.param((33, 33), 32, 16, 4, 3, id="one-row-step-of-all-users-bench-shape"),
    # the widest at which gemm is pinned to sum in order, so every user keeps
    # its bits, narrower batches too
    pytest.param((64, 50, 7, 0, 1, 1, 17, 33, 49, 2), 16, 17, 10, 2, id="17-features"),
    # runs of equal sizes, each drawn in one permuted call; 33 and 64 rows both
    # make 2 steps an epoch but draw orders of different lengths
    pytest.param((50, 50, 50, 49, 50, 49, 49, 0, 0, 33, 64, 64), 32, 8, 3, 3,
                 id="runs-of-equal-sizes"),
    # a row set without rows splits no run: the two 49s draw in one call
    pytest.param((49, 0, 49, 0, 0, 17), 32, 8, 3, 3, id="a-run-around-empty-row-sets"),
])
def test_train_users_equals_reference_at_branch_points(sizes, batch_size, n_features,
                                                       n_classes, epochs):
    _assert_equals_reference(np.random.default_rng(22), epochs, batch_size, sizes=sizes,
                             n_features=n_features, n_classes=n_classes)


def test_train_users_at_image_width_equals_reference_for_full_and_one_row_batches():
    # 784 features, as IDX images have. A user whose batches are all full or
    # one row computes its own batches' products, so it matches training alone.
    # Above 17 features gemm need not sum each entry in order, so a user whose
    # batch is narrower than its step but not one row (50, 7 and 2 rows here)
    # may differ in the last bits, and is left out.
    batch_size = 16
    pool, rows, seed, w0 = _mixed_users(np.random.default_rng(33),
                                        sizes=(64, 50, 7, 0, 1, 1, 17, 33, 49, 97, 2),
                                        n_features=784, n_classes=10)
    out = train_users(w0, pool, rows, epochs=2, lr=0.3, seed=seed, batch_size=batch_size)
    expected = _reference_weights(w0, pool, rows, 2, batch_size, seed)
    exact = [u for u, r in enumerate(rows) if r.size % batch_size in (0, 1)]
    assert len(exact) == 8
    for u in exact:
        assert np.array_equal(out[u], expected[u]), f"user {u} with {rows[u].size} rows"


def test_train_users_draws_nothing_for_a_user_without_rows():
    # the empty user sits between two training users: the second trains on
    # the draws that follow the first's, and a reference that draws for the
    # empty user gives it other orders
    pool, rows, seed, w0 = _mixed_users(np.random.default_rng(26), sizes=(17, 0, 33))
    out = train_users(w0, pool, rows, epochs=3, lr=0.3, seed=seed, batch_size=16)
    expected = _reference_weights(w0, pool, rows, 3, 16, seed)
    drawing = _reference_weights(w0, pool, rows, 3, 16, seed, draw_for_empty=True)
    assert all(np.array_equal(a, b) for a, b in zip(out, expected))
    assert np.array_equal(out[1], w0)
    assert np.array_equal(drawing[0], out[0]) and not np.array_equal(drawing[2], out[2])


def test_train_users_step_is_as_wide_as_its_widest_batch(monkeypatch):
    # 50 rows in batches of 32 are one 32-row and one 18-row batch per user:
    # the second step computes 18 score rows, not 32
    pool, rows, seed, w0 = _mixed_users(np.random.default_rng(25), sizes=(50, 50, 50))
    shapes = []
    sigmoid = learning._sigmoid

    def recording(z):
        shapes.append(z.shape)
        return sigmoid(z)

    monkeypatch.setattr(learning, "_sigmoid", recording)
    train_users(w0, pool, rows, epochs=1, lr=0.3, seed=seed, batch_size=32)
    assert shapes == [(3, 32, pool.n_classes), (3, 18, pool.n_classes)]


def test_train_users_zero_epochs_returns_initial_weights():
    pool, rows, seed, w0 = _mixed_users(np.random.default_rng(18))
    out = train_users(w0, pool, rows, epochs=0, lr=0.3, seed=seed, batch_size=16)
    assert np.array_equal(out, np.tile(w0, (len(rows), 1)))


@pytest.mark.parametrize("bad_row", [-1, 200])
def test_train_users_rejects_rows_outside_the_pool(bad_row):
    pool, rows, seed, w0 = _mixed_users(np.random.default_rng(19))
    rows[2] = np.append(rows[2], bad_row)
    with pytest.raises(ValidationError):
        train_users(w0, pool, rows, epochs=1, lr=0.3, seed=seed, batch_size=16)


@pytest.mark.parametrize("rows", [
    pytest.param([np.arange(6).reshape(2, 3)], id="2-d-row-set"),
    pytest.param([np.int64(4)], id="0-d-row-set"),
])
def test_train_users_rejects_mismatched_seeds_and_row_sets(rows):
    pool = random_dataset(np.random.default_rng(23))
    with pytest.raises(ValidationError, match="^train: every row set must be a 1-d index array$"):
        train_users(np.zeros(weight_dim(pool.n_features, pool.n_classes)), pool, rows,
                    epochs=1, lr=0.1, seed=1, batch_size=4)


# the one seed of a call of 1, 16 or 24 row sets, as a Python or a numpy integer
@pytest.mark.parametrize("n_users", [1, 16, 24])
@pytest.mark.parametrize("seed", [
    pytest.param(-1, id="negative"),
    pytest.param(np.int64(-1), id="negative-int64-array"),
    pytest.param(2**63, id="2**63"),
    pytest.param(np.uint64(2**63), id="2**63-uint64-array"),
    pytest.param(1.5, id="fraction"),
    pytest.param(True, id="bool"),
])
def test_train_users_rejects_seeds_outside_0_to_2_63(n_users, seed):
    # before numpy could wrap a negative seed or raise its own error
    pool = random_dataset(np.random.default_rng(24))
    rows = [np.arange(3)] * n_users
    with pytest.raises(ValidationError, match=rf"^train: seed must be an integer in "
                                              rf"\[0, 2\*\*63\), got {re.escape(repr(seed))}$"):
        train_users(np.zeros(weight_dim(pool.n_features, pool.n_classes)), pool, rows,
                    epochs=1, lr=0.1, seed=seed, batch_size=4)


def test_train_users_padded_step_means_over_its_rows_alone():
    # one epoch of one batch: 8, 5 and 1 rows padded to a batch of 8; each user
    # steps by the mean gradient over its own rows, padding adds nothing
    rng = np.random.default_rng(20)
    pool = random_dataset(rng, n=30, n_features=4, n_classes=3)
    rows = [np.arange(0, 8), np.arange(10, 15), np.array([20])]
    w0 = rng.normal(size=weight_dim(4, 3))
    out = train_users(w0, pool, rows, epochs=1, lr=0.5, seed=3, batch_size=8)
    shared = np.random.default_rng(3)
    for u, r in enumerate(rows):
        batch = r[shared.permutation(r.size)]
        grad = loss_gradient(w0, pool.features[batch], pool.labels[batch], 3)
        assert np.array_equal(out[u], w0 - 0.5 * grad)


@pytest.mark.parametrize("n", [1, 2, 7, 50, 600])
@pytest.mark.parametrize("seed", [0, 7, 2**31 - 1])
def test_permuted_epochs_equal_sequential_permutations(n, seed):
    # train_users draws a user's epochs with one Generator.permuted call;
    # train and the reference loop draw one permutation per epoch
    epochs = 5
    sequential = np.random.default_rng(seed)
    expected = np.stack([sequential.permutation(n) for _ in range(epochs)])
    tiled = np.random.default_rng(seed).permuted(np.tile(np.arange(n), (epochs, 1)), axis=1)
    message = (f"Generator.permuted no longer matches sequential permutation calls "
               f"on numpy {np.__version__}")
    assert np.array_equal(tiled, expected), message
    # the kernel shuffles the row ids in place, in a strided view of its table
    table = np.full((epochs, n + 3), -1)
    view = table[:, :n]
    view[:] = np.arange(n) + 100
    np.random.default_rng(seed).permuted(view, axis=1, out=view)
    assert np.array_equal(view, expected + 100), message
    assert np.all(table[:, n:] == -1)


@pytest.mark.parametrize("users, n", [(800, 50), (50, 1200), (10, 600), (9, 2), (5, 1), (3, 0)])
@pytest.mark.parametrize("seed", [0, 7, 123456789])
def test_permuted_runs_equal_sequential_permutations(users, n, seed):
    # train_users draws the epochs of a run of equal-size row sets with one
    # permuted call on a strided (users, epochs, n) view of its batch table
    epochs = 3
    sequential = np.random.default_rng(seed)
    expected = np.array([sequential.permutation(n) for _ in range(users * epochs)])
    table = np.full((users + 2, epochs, n + 3), -1)
    view = table[1:-1, :, :n]
    view[:] = np.arange(n) + 100
    drawn = np.random.default_rng(seed)
    drawn.permuted(view, axis=2, out=view)
    message = (f"Generator.permuted over a 3-d strided view no longer matches sequential "
               f"permutation calls on numpy {np.__version__}")
    assert np.array_equal(view, expected.reshape(users, epochs, n) + 100), message
    assert np.all(table[[0, -1]] == -1) and np.all(table[:, :, n:] == -1)
    assert drawn.integers(2**63) == sequential.integers(2**63), message


def test_an_empty_population_splits_and_trains_to_nothing():
    assert split_dataset([], [], 3) == ([], [])
    pool, _, seed, w0 = _mixed_users(np.random.default_rng(27))
    out = train_users(w0, pool, [], epochs=2, lr=0.3, seed=seed, batch_size=16)
    assert out.shape == (0, w0.size)


def test_a_run_of_equal_sizes_draws_in_one_call(monkeypatch):
    # a per-user loop of draws fails this count; the row sets train in runs
    # 50 x 3, 49, 50, 49 x 2, 33 and 64 x 2
    pool, rows, seed, w0 = _mixed_users(np.random.default_rng(28),
                                        sizes=(50, 50, 50, 49, 50, 49, 49, 0, 0, 33, 64, 64))
    calls = collections.Counter()
    default_rng = learning.np.random.default_rng
    monkeypatch.setattr(learning.np.random, "default_rng",
                        lambda seed: CountingGenerator(default_rng(seed), calls))
    split_dataset(np.full(800, 50), np.full(800, 0.1), 7)
    assert calls == {"permuted": 1}
    calls.clear()
    train_users(w0, pool, rows, epochs=3, lr=0.3, seed=seed, batch_size=32)
    assert calls == {"permuted": 6}


def _blas_build():
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):   # numpy before 1.25 prints its config only
        return "an unreported BLAS"
    return f"{blas.get('name')} {blas.get('version')} ({blas.get('openblas configuration')})"


def test_gemm_sums_the_ones_column_in_order():
    # Up to 17 features gemm sums each entry in order: a product of rows that
    # end in a 1 ends in + bias, and the last gradient column is the bias
    # gradient's row sum. So the ones-column products equal the features-alone
    # products plus a separate bias, which is why outputs at 17 features or
    # fewer (the synthetic data's 16) kept their bits when every score moved to
    # the ones column, and why a batch narrower than its step, whose padding
    # adds zeros, keeps its bits there. Shapes at bench sizes; a one-row
    # forward product is gemv, which does not sum in that order.
    rng = np.random.default_rng(27)
    message = (f"gemm no longer sums each entry in order on numpy {np.__version__} with "
               f"{_blas_build()}, shape")
    for n_features in [16, *rng.integers(2, 18, size=99)]:
        users, rows, n_classes = (int(v) for v in rng.integers([1, 1, 2], [801, 33, 11]))
        x = rng.uniform(0, 1, (users, rows, n_features))
        x1 = np.concatenate([x, np.ones((users, rows, 1))], axis=2)
        w = rng.normal(size=(users, n_classes, n_features + 1))
        dz = rng.normal(scale=0.1, size=(users, rows, n_classes))
        shape = (users, rows, n_features, n_classes)
        if rows > 1:
            assert np.array_equal(x1 @ w.swapaxes(1, 2),
                                  x @ w[:, :, :-1].swapaxes(1, 2) + w[:, None, :, -1]), \
                f"{message} {shape}"
        assert np.array_equal(dz.swapaxes(1, 2) @ x1,
                              np.concatenate([dz.swapaxes(1, 2) @ x,
                                              dz.sum(axis=1)[..., None]], axis=2)), \
            f"{message} {shape}"


def test_user_major_products_equal_batch_major_ones():
    # train_users holds scores user-major, (users, rows, classes), as the
    # product's own output, and steps a one-row-set call on 2-D views with
    # np.dot; the scores used to be written batch-major through a transposed
    # out=, and the gradient taken from batch-major dz. gemm sums each entry in
    # the same order whatever the strides, and np.dot calls the same gemm as
    # matmul, so all give the same bits. Shapes at bench sizes.
    rng = np.random.default_rng(31)
    message = (f"the user-major products no longer equal the batch-major ones on numpy "
               f"{np.__version__} with {_blas_build()}, shape")
    for n_features in [16, *rng.integers(1, 18, size=299)]:
        users, rows, n_classes = (int(v) for v in rng.integers([1, 1, 2], [801, 33, 11]))
        x = np.concatenate([rng.uniform(0, 1, (users, rows, n_features)),
                            np.ones((users, rows, 1))], axis=2)
        w = rng.normal(size=(users, n_classes, n_features + 1))
        dz = rng.normal(scale=0.1, size=(users, rows, n_classes))
        shape = (users, rows, n_features, n_classes)
        z = x @ w.swapaxes(-1, -2)
        batch_major = np.empty((rows, users, n_classes))
        np.matmul(x, w.swapaxes(1, 2), out=batch_major.swapaxes(0, 1))
        assert np.array_equal(z, batch_major.swapaxes(0, 1)), f"{message} {shape}"
        grad = dz.swapaxes(-1, -2) @ x
        assert np.array_equal(grad, np.ascontiguousarray(dz.swapaxes(0, 1)).transpose(1, 2, 0)
                              @ x), f"{message} {shape}"
        assert np.array_equal(np.dot(x[0], w[0].T), z[0]), f"{message} {shape}"
        assert np.array_equal(np.dot(dz[0].T, x[0]), grad[0]), f"{message} {shape}"


def _sigmoid_message(what):
    return f"_sigmoid {what} on numpy {np.__version__}: np.exp's float64 loop changed"


def test_sigmoid_is_within_2_ulp_of_expit():
    # 1 / (1 + exp(-z)) in expit's steps, on numpy's exp instead of libm's
    z = np.random.default_rng(31).normal(0.0, 3.0, 10**5)
    ulps = np.abs(_sigmoid(z.copy()).view(np.int64) - expit(z).view(np.int64))
    assert ulps.max() <= 2, _sigmoid_message(f"is {ulps.max()} ulp from expit")


_EXTREMES = np.array([-1000.0, -710.0, 0.0, 710.0, 1000.0, np.inf, -np.inf, np.nan])


def test_sigmoid_equals_expit_at_extremes_without_a_warning():
    # below z = -709.78 exp(-z) overflows and the sigmoid is 0, as expit gives;
    # _scores (loss, gradient, accuracy) and train_users silence that overflow
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with np.errstate(over="ignore"):
            direct = _sigmoid(_EXTREMES.copy())
        # a zero feature and weight make each class's score its bias
        n = _EXTREMES.size
        w = np.stack([np.zeros(n), _EXTREMES], axis=1).ravel()
        scored = _scores(w, np.array([[0.0, 1.0]]), n)[0]
        pool = Dataset(np.full((6, 1), 0.5), np.arange(6) % 2, 2)
        w0 = np.array([0.0, -1000.0, 0.0, 1000.0])
        # every score is 0 or 1 exactly, so every gradient is 0
        trained = train_users(w0, pool, [np.arange(6)], epochs=2, lr=0.5, seed=3,
                              batch_size=4)
    expected = expit(_EXTREMES)
    assert np.array_equal(direct, expected, equal_nan=True), _sigmoid_message("moved")
    assert np.array_equal(scored, expected, equal_nan=True), _sigmoid_message("moved")
    assert np.isnan(direct[-1])
    assert np.array_equal(trained[0], w0)


def test_sigmoid_gives_every_layout_the_same_bits():
    # train_users gives a user the bits of its batch alone only if an entry's
    # sigmoid does not depend on where it sits in the array
    z = np.concatenate([np.random.default_rng(32).normal(0.0, 3.0, 592), _EXTREMES])
    grid = z.reshape(20, 30)
    with np.errstate(over="ignore"):
        expected = _sigmoid(grid.copy()).view(np.int64)
        layouts = {"transposed": grid.T.copy().T,
                   "strided": np.repeat(grid, 2, axis=1)[:, ::2]}
        for name, arr in layouts.items():
            assert np.array_equal(_sigmoid(arr).view(np.int64), expected), \
                _sigmoid_message(f"gives a {name} array other bits")
        buf = np.empty(33)
        for offset in range(17):
            for length in range(1, 18):
                view = buf[offset:offset + length]
                view[:] = z[-length:]
                assert np.array_equal(_sigmoid(view).view(np.int64),
                                      expected.ravel()[-length:]), \
                    _sigmoid_message(f"bits depend on the offset {offset} or length {length}")


def _model(local_weights, edge_weights, sizes, kept, edge_size):
    local_weights = np.asarray(local_weights, dtype=float)
    return ModelState(
        local_weights=local_weights,
        edge_weights=np.asarray(edge_weights, dtype=float),
        global_weights=np.zeros(local_weights.shape[1]),
        dataset_sizes=sizes,
        local_trainset_sizes=kept,
        edge_trainset_size=edge_size,
    )


def test_aggregate_no_offload_is_plain_weighted_mean():
    w1, w2 = np.array([1.0, 3.0]), np.array([5.0, 7.0])
    model = _model([w1, w2], np.zeros(2), [100, 100], [100, 100], 0)
    assert np.allclose(aggregate(model), (w1 + w2) / 2, rtol=0, atol=0)


def test_aggregate_full_offload_returns_edge_model():
    edge = np.array([0.1, -0.7, 2.2])
    model = _model(np.zeros((2, 3)), edge, [600, 600], [0, 0], 1200)
    assert np.array_equal(aggregate(model), edge)


def test_aggregate_mixed_against_weighted_mean_oracle():
    rng = np.random.default_rng(10)
    w1, w2, we = rng.normal(size=(3, 5))
    model = _model([w1, w2], we, [1200, 1200], [600, 1200], 600)
    out = aggregate(model)
    # independent naive accumulation
    expected = [
        (600 * w1[k] + 1200 * w2[k] + 600 * we[k]) / 2400
        for k in range(5)
    ]
    assert np.allclose(out, expected, rtol=1e-15)


def test_aggregate_coefficients_form_probability_vector():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(1, 6))
        sizes = rng.integers(1, 2000, n)
        kept = np.array([rng.integers(0, s + 1) for s in sizes])
        edge = int((sizes - kept).sum())
        model = _model(rng.normal(size=(n, 3)), rng.normal(size=3), sizes, kept, edge)
        coeffs = np.append(kept / sizes.sum(), edge / sizes.sum())
        assert abs(coeffs.sum() - 1.0) <= 1e-12
        assert np.all(coeffs >= 0)
        aggregate(model)  # must not raise


def test_aggregate_detects_inconsistent_sizes():
    model = _model(np.zeros((2, 3)), np.zeros(3), [100, 100], [50, 50], 40)
    with pytest.raises(SimulationError, match="aggregate: trained on 140 samples but the pool "
                                              "holds 200"):
        aggregate(model)


def test_loss_at_zero_weights_is_quarter_per_class():
    rng = np.random.default_rng(12)
    d = Dataset(rng.uniform(0, 1, (30, 6)), rng.integers(0, 10, 30), 10)
    w = np.zeros(weight_dim(6, 10))
    # every sigmoid is 0.5: (0.5-1)^2 + 9*(0.5)^2 = 2.5 per sample
    assert evaluate_loss(w, d) == pytest.approx(2.5)


def test_loss_vanishes_for_perfect_predictor():
    d = Dataset([[0.0], [1.0]], [0, 1], 2)
    w = np.array([-100.0, 50.0, 100.0, -50.0])  # rows (feature, bias) per class
    assert evaluate_loss(w, d) < 1e-20


def test_loss_equals_the_one_hot_formula_bit_for_bit():
    # the loss subtracts 1 at each label in place of a one-hot matrix: an
    # entry minus 0.0 keeps its bits, saturated scores of exactly 0 and 1 too
    rng = np.random.default_rng(14)
    d = random_dataset(rng, n=300, n_features=4, n_classes=5)
    for scale in (1.0, 1e3):
        w = scale * rng.normal(size=weight_dim(4, 5))
        scores = _scores(w, d.rows, 5)
        one_hot = float(np.sum((scores - np.eye(5)[d.labels]) ** 2) / d.sample_count)
        assert evaluate_loss(w, d) == one_hot
    assert (scores == 0.0).any() and (scores == 1.0).any()


def test_loss_matches_naive_double_loop():
    rng = np.random.default_rng(13)
    d = random_dataset(rng, n=25, n_features=4, n_classes=3)
    w = rng.normal(size=weight_dim(4, 3))
    rows = w.reshape(3, -1)
    total = 0.0
    for j in range(d.sample_count):
        for c in range(3):
            z = sum(rows[c, k] * d.features[j, k] for k in range(4)) + rows[c, -1]
            s = 1.0 / (1.0 + math.exp(-z))
            target = 1.0 if d.labels[j] == c else 0.0
            total += (s - target) ** 2
    assert evaluate_loss(w, d) == pytest.approx(total / d.sample_count, abs=1e-10)


def test_loss_rejects_empty_dataset():
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    with pytest.raises(ValidationError, match="evaluate_loss: dataset has no samples"):
        evaluate_loss(np.zeros(weight_dim(2, 2)), empty)


def test_accuracy_rejects_empty_dataset():
    empty = Dataset(np.zeros((0, 2)), np.zeros(0, dtype=int), 2)
    with pytest.raises(ValidationError, match="^accuracy: dataset has no samples$"):
        learning.accuracy(np.zeros(weight_dim(2, 2)), empty)


@pytest.mark.parametrize("features, labels, message", [
    ([0.5, 0.5], [0, 1], r"features must be 2-d \(samples, features\)"),
    ([[0.5], [0.5]], [0], "one label per feature row required"),
    ([[0.5], [0.5]], [[0, 1]], "one label per feature row required"),
])
def test_dataset_refuses_flat_features_and_a_label_count_off_the_row_count(features, labels,
                                                                           message):
    with pytest.raises(ValidationError, match=f"^Dataset: {message}$"):
        Dataset(features, labels, 2)


@pytest.mark.parametrize("labels, dtype", [
    pytest.param([0.7, 1.9], "float64", id="fractions"),   # used to be kept as [0, 1]
    pytest.param(["0", "1"], "<U1", id="strings"),          # used to be parsed
    pytest.param([0, np.nan], "float64", id="nan"),         # used to raise numpy's ValueError
    pytest.param([True, False], "bool", id="bools"),
])
def test_dataset_refuses_labels_that_are_not_integers(labels, dtype):
    with pytest.raises(ValidationError,
                       match=f"^Dataset: labels must be integers, got dtype {re.escape(dtype)}$"):
        Dataset(np.full((2, 1), 0.5), labels, 2)


@pytest.mark.parametrize("score", [evaluate_loss, learning.accuracy])
@pytest.mark.parametrize("length", [5, 7])
def test_scoring_refuses_weights_of_the_wrong_length(score, length):
    # used to escape as numpy's bare "cannot reshape array of size 5 into shape (4,newaxis)"
    d = random_dataset(np.random.default_rng(18), n=6, n_features=1, n_classes=3)
    with pytest.raises(ValidationError, match=f"^{score.__name__}: weight length {length} "
                                              "does not match 6$"):
        score(np.zeros(length), d)


def test_dataset_validation():
    with pytest.raises(ValidationError):
        Dataset([[1.5]], [0], 2)          # features out of range
    for bad in (np.nan, np.inf):          # NaN used to pass: it fails every comparison
        with pytest.raises(ValidationError, match=r"normalized to \[0, 1\]"):
            Dataset([[0.5], [bad]], [0, 1], 2)
    with pytest.raises(ValidationError):
        Dataset([[0.5]], [2], 2)          # label out of range
    with pytest.raises(ValidationError):
        Dataset([[0.5]], [0], 1)          # too few classes
    for n_classes in (3.0, 2.5, True):  # no integer class count
        with pytest.raises(ValidationError):
            Dataset([[0.5]], [0], n_classes)
    assert Dataset([[0.5]], [0], np.int64(2)).n_classes == 2
    assert Dataset(np.zeros((0, 1)), [], 2).sample_count == 0   # [] is float64: no label to refuse


@pytest.mark.parametrize("pick", ["indices", "slice", "mask"])
def test_take_equals_the_validating_constructor(pick):
    rng = np.random.default_rng(17)
    d = random_dataset(rng, n=30, n_features=5, n_classes=3)
    indices = {"indices": rng.permutation(30)[:12], "slice": slice(3, 27, 4),
               "mask": rng.random(30) < 0.5}[pick]
    got = d.take(indices)
    want = Dataset(d.features[indices], d.labels[indices], d.n_classes)
    assert got.n_classes == want.n_classes
    for name in ("rows", "features", "labels"):
        a, b = getattr(got, name), getattr(want, name)
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
        assert not a.flags.writeable and not b.flags.writeable, name
