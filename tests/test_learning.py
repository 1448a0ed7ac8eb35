import math
import warnings

import numpy as np
import pytest
from scipy.special import expit

from mecfl import learning
from mecfl.errors import EmptyDataset, InconsistentSizes, ValidationError
from mecfl.learning import (
    _VECTOR_SEEDS_MIN,
    Dataset,
    _generators,
    _scores,
    _sigmoid,
    aggregate,
    evaluate_loss,
    loss_gradient,
    shuffle_dataset,
    split_dataset,
    train,
    train_users,
    weight_dim,
)
from mecfl.types import ModelState


def random_dataset(rng, n=40, n_features=3, n_classes=2):
    return Dataset(rng.uniform(0, 1, (n, n_features)),
                   rng.integers(0, n_classes, n), n_classes)


def assert_partition(kept, offloaded, n):
    assert np.array_equal(np.sort(np.concatenate([kept, offloaded])), np.arange(n))


def test_split_zero_delta_keeps_everything():
    d = random_dataset(np.random.default_rng(0))
    kept, offloaded = split_dataset(d, 0.0, seed=1)
    assert offloaded.size == 0
    assert_partition(kept, offloaded, d.sample_count)


def test_split_full_delta_offloads_everything():
    d = random_dataset(np.random.default_rng(0))
    kept, offloaded = split_dataset(d, 1.0, seed=1)
    assert kept.size == 0
    assert_partition(kept, offloaded, d.sample_count)


def test_split_half_of_1200_is_600_600_disjoint():
    d = random_dataset(np.random.default_rng(1), n=1200)
    kept, offloaded = split_dataset(d, 0.5, seed=5)
    assert kept.size == 600
    assert offloaded.size == 600
    assert_partition(kept, offloaded, 1200)


def test_split_reproducible_and_seed_sensitive():
    d = random_dataset(np.random.default_rng(2), n=100)
    kept_a, a = split_dataset(d, 0.3, seed=7)
    kept_b, b = split_dataset(d, 0.3, seed=7)
    _, c = split_dataset(d, 0.3, seed=8)
    assert np.array_equal(a, b) and np.array_equal(kept_a, kept_b)
    assert not np.array_equal(a, c)


def test_split_complement_swaps_cardinalities():
    d = random_dataset(np.random.default_rng(3), n=101)
    rng = np.random.default_rng(4)
    assert split_dataset(d, 0.5, seed=1)[1].size == 51   # 50.5 rows round half-up
    for delta in rng.uniform(0.01, 0.99, 20):
        direct_kept, direct_offloaded = split_dataset(d, delta, seed=1)
        flipped_kept, flipped_offloaded = split_dataset(d, 1.0 - delta, seed=1)
        assert direct_offloaded.size == math.floor(delta * 101 + 0.5)
        assert direct_offloaded.size == flipped_kept.size
        assert direct_kept.size == flipped_offloaded.size
        assert_partition(direct_kept, direct_offloaded, 101)


def test_split_rejects_bad_delta():
    d = random_dataset(np.random.default_rng(0))
    with pytest.raises(ValidationError):
        split_dataset(d, 1.5, seed=0)


@pytest.mark.parametrize("seed", [-1, 1.5, 2**63, True])
@pytest.mark.parametrize("call", [lambda d, seed: split_dataset(d, 0.5, seed),
                                  lambda d, seed: shuffle_dataset(d, seed)],
                         ids=["split_dataset", "shuffle_dataset"])
def test_split_and_shuffle_reject_seeds_outside_0_to_2_63(call, seed):
    # numpy's own ValueError (-1, 2**63) and TypeError (1.5) do not leak, and a
    # bool is no seed, though True == 1
    d = random_dataset(np.random.default_rng(0), n=4)
    with pytest.raises(ValidationError, match=rf"seed must be an integer in \[0, 2\*\*63\), "
                                              rf"got {seed!r}$"):
        call(d, seed)


def test_split_takes_a_generator_or_the_largest_seed():
    d = random_dataset(np.random.default_rng(0), n=9)
    for seed in (0, 2**63 - 1, np.int64(7)):
        kept, offloaded = split_dataset(d, 0.5, seed)
        generator_split = split_dataset(d, 0.5, np.random.default_rng(seed))
        assert np.array_equal(kept, generator_split[0])
        assert np.array_equal(offloaded, generator_split[1])


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
    with pytest.raises(EmptyDataset):
        train(np.zeros(weight_dim(2, 2)), empty, epochs=1, lr=0.1, seed=0)


def test_loss_gradient_rejects_no_rows():
    with pytest.raises(EmptyDataset):
        loss_gradient(np.zeros(weight_dim(2, 2)), np.zeros((0, 2)), np.zeros(0, dtype=int), 2)


@pytest.mark.parametrize("epochs, lr, batch_size", [
    (1, 0.1, 0),      # batch_size < 1 used to escape as a bare ValueError from range()
    (1, 0.1, -3),
    (-1, 0.1, 8),     # epochs < 0 used to return w_init silently
    (1, 0.0, 8),
])
def test_train_rejects_bad_arguments(epochs, lr, batch_size):
    d = random_dataset(np.random.default_rng(14))
    with pytest.raises(ValidationError):
        train(np.zeros(weight_dim(d.n_features, d.n_classes)), d, epochs=epochs, lr=lr,
              seed=0, batch_size=batch_size)


def _reference_train(w_init, d, epochs, lr, seed, batch_size):
    # the per-batch loop train() replaced: one validated Dataset per mini-batch
    w = np.array(w_init, dtype=float)
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        order = rng.permutation(d.sample_count)
        for start in range(0, d.sample_count, batch_size):
            batch = d.take(order[start:start + batch_size])
            w -= lr * loss_gradient(w, batch.features, batch.labels, batch.n_classes)
    return w


@pytest.mark.parametrize("n, batch_size", [
    (64, 16),     # whole batches only
    (50, 16),     # ragged last batch of 2
    (7, 32),      # batch_size > n: one batch per epoch
    (1, 1),
])
def test_train_equals_per_batch_dataset_loop(n, batch_size):
    rng = np.random.default_rng(15)
    d = random_dataset(rng, n=n, n_features=5, n_classes=3)
    w0 = rng.normal(size=weight_dim(5, 3))
    out = train(w0, d, epochs=3, lr=0.3, seed=21, batch_size=batch_size)
    assert np.array_equal(out, _reference_train(w0, d, 3, 0.3, 21, batch_size))


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
    return (pool, rows, rng.integers(2**31, size=len(rows)),
            rng.normal(size=weight_dim(n_features, n_classes)))


def _assert_equals_reference(rng, epochs=3, batch_size=16, **users):
    pool, rows, seeds, w0 = _mixed_users(rng, **users)
    out = train_users(w0, pool, rows, epochs=epochs, lr=0.3, seeds=seeds,
                      batch_size=batch_size)
    assert out.shape == (len(rows), w0.size)
    for u, r in enumerate(rows):
        expected = (_reference_train(w0, pool.take(r), epochs, 0.3, seeds[u], batch_size)
                    if r.size else w0)
        assert np.array_equal(out[u], expected), f"user {u} with {r.size} rows"


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
])
def test_train_users_equals_reference_at_branch_points(sizes, batch_size, n_features,
                                                       n_classes, epochs):
    _assert_equals_reference(np.random.default_rng(22), epochs, batch_size, sizes=sizes,
                             n_features=n_features, n_classes=n_classes)


def test_train_users_step_is_as_wide_as_its_widest_batch(monkeypatch):
    # 50 rows in batches of 32 are one 32-row and one 18-row batch per user:
    # the second step computes 18 score rows, not 32
    pool, rows, seeds, w0 = _mixed_users(np.random.default_rng(25), sizes=(50, 50, 50))
    shapes = []
    sigmoid = learning._sigmoid

    def recording(z):
        shapes.append(z.shape)
        return sigmoid(z)

    monkeypatch.setattr(learning, "_sigmoid", recording)
    train_users(w0, pool, rows, epochs=1, lr=0.3, seeds=seeds, batch_size=32)
    assert shapes == [(32, 3, pool.n_classes), (18, 3, pool.n_classes)]


def test_train_users_zero_epochs_returns_initial_weights():
    pool, rows, seeds, w0 = _mixed_users(np.random.default_rng(18))
    out = train_users(w0, pool, rows, epochs=0, lr=0.3, seeds=seeds, batch_size=16)
    assert np.array_equal(out, np.tile(w0, (len(rows), 1)))


@pytest.mark.parametrize("bad_row", [-1, 200])
def test_train_users_rejects_rows_outside_the_pool(bad_row):
    pool, rows, seeds, w0 = _mixed_users(np.random.default_rng(19))
    rows[2] = np.append(rows[2], bad_row)
    with pytest.raises(ValidationError):
        train_users(w0, pool, rows, epochs=1, lr=0.3, seeds=seeds, batch_size=16)


@pytest.mark.parametrize("seeds, rows", [
    pytest.param([1, 2], [np.arange(5)], id="more-seeds-than-row-sets"),
    pytest.param([1], [np.arange(5), np.arange(3)], id="fewer-seeds-than-row-sets"),
    pytest.param([1], [np.arange(6).reshape(2, 3)], id="2-d-row-set"),
    pytest.param([1], [np.int64(4)], id="0-d-row-set"),
])
def test_train_users_rejects_mismatched_seeds_and_row_sets(seeds, rows):
    pool = random_dataset(np.random.default_rng(23))
    with pytest.raises(ValidationError):
        train_users(np.zeros(weight_dim(pool.n_features, pool.n_classes)), pool, rows,
                    epochs=1, lr=0.1, seeds=seeds, batch_size=4)


@pytest.mark.parametrize("n_users", [1, 2 * _VECTOR_SEEDS_MIN])
@pytest.mark.parametrize("seeds", [
    pytest.param(lambda n: [*range(n - 1), -1], id="negative"),
    pytest.param(lambda n: np.append(np.arange(n - 1), -1), id="negative-int64-array"),
    pytest.param(lambda n: [*range(n - 1), 2**63], id="2**63"),
    pytest.param(lambda n: np.append(np.arange(n - 1, dtype=np.uint64), np.uint64(2**63)),
                 id="2**63-uint64-array"),
    pytest.param(lambda n: [*range(n - 1), 1.5], id="fraction"),
    pytest.param(lambda n: [*range(n - 1), True], id="bool"),
])
def test_train_users_rejects_seeds_outside_0_to_2_63(n_users, seeds):
    # on both sides of the cutoff of the vectorized generators, and before
    # numpy could wrap a negative seed to uint32 or raise its own error
    pool = random_dataset(np.random.default_rng(24))
    rows = [np.arange(3)] * n_users
    with pytest.raises(ValidationError, match=f"seed {n_users - 1} "):
        train_users(np.zeros(weight_dim(pool.n_features, pool.n_classes)), pool, rows,
                    epochs=1, lr=0.1, seeds=seeds(n_users), batch_size=4)


def test_train_users_padded_step_means_over_its_rows_alone():
    # one epoch of one batch: 8, 5 and 1 rows padded to a batch of 8; each user
    # steps by the mean gradient over its own rows, padding adds nothing
    rng = np.random.default_rng(20)
    pool = random_dataset(rng, n=30, n_features=4, n_classes=3)
    rows = [np.arange(0, 8), np.arange(10, 15), np.array([20])]
    seeds = [3, 4, 5]
    w0 = rng.normal(size=weight_dim(4, 3))
    out = train_users(w0, pool, rows, epochs=1, lr=0.5, seeds=seeds, batch_size=8)
    for u, r in enumerate(rows):
        batch = r[np.random.default_rng(seeds[u]).permutation(r.size)]
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


_PIN_SEEDS = np.concatenate([
    np.array([0, 1, 2**31 - 1, 2**32 - 1, 2**32, 2**63 - 1], dtype=np.uint64),
    np.random.default_rng(25).integers(2**31, size=5000).astype(np.uint64),
    np.random.default_rng(26).integers(2**63, size=5000).astype(np.uint64),
])


@pytest.mark.parametrize("count", [1, _VECTOR_SEEDS_MIN - 1, _VECTOR_SEEDS_MIN,
                                   _PIN_SEEDS.size])
def test_generators_equal_default_rng(count):
    # the split and epoch generators of a round must draw what
    # np.random.default_rng(seed) draws, on both sides of the cutoff
    seeds = _PIN_SEEDS[:count]
    message = (f"_generators no longer matches np.random.default_rng: SeedSequence or PCG64 "
               f"seeding changed on numpy {np.__version__}, seed")
    for s, gen in zip(seeds.tolist(), _generators(seeds)):
        assert np.array_equal(gen.permutation(50), np.random.default_rng(s).permutation(50)), \
            f"{message} {s}"
    for s, gen in zip(seeds.tolist(), _generators(seeds)):
        # as the kernel draws epochs: in place, in a strided view of a table
        table, expected = np.full((5, 9), -1), np.full((5, 9), -1)
        for out, rng in ((table, gen), (expected, np.random.default_rng(s))):
            view = out[:, :7]
            view[:] = np.arange(7)
            rng.permuted(view, axis=1, out=view)
        assert np.array_equal(table, expected), f"{message} {s}"


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
        # zero features and weights make each class's score its bias
        n = _EXTREMES.size
        w = np.stack([np.zeros(n), _EXTREMES], axis=1).ravel()
        scored = _scores(w, np.zeros((1, 1)), n)[0]
        pool = Dataset(np.full((6, 1), 0.5), np.arange(6) % 2, 2)
        w0 = np.array([0.0, -1000.0, 0.0, 1000.0])
        # every score is 0 or 1 exactly, so every gradient is 0
        trained = train_users(w0, pool, [np.arange(6)], epochs=2, lr=0.5, seeds=[3],
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
    with pytest.raises(InconsistentSizes):
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
    with pytest.raises(EmptyDataset):
        evaluate_loss(np.zeros(weight_dim(2, 2)), empty)


def test_dataset_validation():
    with pytest.raises(ValidationError):
        Dataset([[1.5]], [0], 2)          # features out of range
    with pytest.raises(ValidationError):
        Dataset([[0.5]], [2], 2)          # label out of range
    with pytest.raises(ValidationError):
        Dataset([[0.5]], [0], 1)          # too few classes
