import re
import struct
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from mecfl import cli, io
from mecfl.cli import main as cli_main
from mecfl.errors import ValidationError
from mecfl.learning import train, accuracy, weight_dim
from mecfl.orchestrator import run_proposed
from mecfl.types import AllocationState
from mecfl.verify import CheckResult

from helpers import desk_spec, emit_config


# ---------------------------------------------------------------- IDX files

def write_idx_pair(tmp_path, images, labels, image_magic=0x803, label_magic=0x801,
                   truncate_images=0):
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx3-ubyte"
    lbl_path = tmp_path / "labels.idx1-ubyte"
    payload = struct.pack(">IIII", image_magic, n, rows, cols) + images.tobytes()
    if truncate_images:
        payload = payload[:-truncate_images]
    img_path.write_bytes(payload)
    lbl_path.write_bytes(struct.pack(">II", label_magic, labels.size) + labels.tobytes())
    return str(img_path), str(lbl_path)


def test_load_idx_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    images = rng.integers(0, 256, (7, 4, 3), dtype=np.uint8)
    labels = rng.integers(0, 10, 7, dtype=np.uint8)
    img, lbl = write_idx_pair(tmp_path, images, labels)
    data = io.load_idx(img, lbl)
    assert data.sample_count == 7
    assert data.n_features == 12
    assert np.array_equal(data.labels, labels)
    assert np.allclose(data.features, images.reshape(7, 12) / 255.0)


def test_load_idx_bad_magic(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1],
                              image_magic=0x801)
    with pytest.raises(ValidationError, match="magic 0x00000801, expected 0x00000803"):
        io.load_idx(img, lbl)


def test_load_idx_count_mismatch(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1])
    with pytest.raises(ValidationError, match=re.escape(f"{img} holds 3 images but {lbl} "
                                                        f"holds 2 labels")):
        io.load_idx(img, lbl)


def test_load_idx_truncated_reports_offset(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 2],
                              truncate_images=5)
    with pytest.raises(ValidationError, match="truncated at byte 16: "):
        io.load_idx(img, lbl)


def test_load_idx_empty_pair_rejected(tmp_path):
    # used to escape as a bare numpy ValueError from reshape
    img, lbl = write_idx_pair(tmp_path, np.zeros((0, 2, 2), np.uint8), [])
    with pytest.raises(ValidationError, match="no images"):
        io.load_idx(img, lbl)


def idx_spec(tmp_path, train_labels, test_labels):
    rng = np.random.default_rng(1)
    (tmp_path / "train").mkdir()
    (tmp_path / "test").mkdir()
    train_img, train_lbl = write_idx_pair(
        tmp_path / "train", rng.integers(0, 256, (len(train_labels), 2, 2)), train_labels)
    test_img, test_lbl = write_idx_pair(
        tmp_path / "test", rng.integers(0, 256, (len(test_labels), 2, 2)), test_labels)
    return desk_spec(seed=3, user_count=2, max_iterations=2,
                     idx_images=train_img, idx_labels=train_lbl,
                     idx_test_images=test_img, idx_test_labels=test_lbl)


def test_idx_test_set_takes_the_training_class_count(tmp_path):
    # the test file lacks the top training class (2), which must not shrink its class count
    spec = idx_spec(tmp_path, [0, 1, 2] * 4, [0, 1, 1, 0, 1])
    assert io.load_test_dataset(spec).n_classes == 3
    result = io.run_experiment(spec)
    assert result.iterations_used == 2


def test_idx_test_label_outside_training_classes_rejected(tmp_path):
    spec = idx_spec(tmp_path, [0, 1, 2] * 4, [0, 1, 3])
    with pytest.raises(ValidationError, match="labels must lie in"):
        io.run_experiment(spec)


def test_idx_pool_of_fewer_images_than_users_is_refused_by_name(tmp_path, capsys):
    # used to fail as "Population: dataset_size[5] must be an integer >= 1, got 0.0"
    spec = replace(idx_spec(tmp_path, [0, 1, 0, 1, 0], [0, 1]), user_count=8)
    message = f"{spec.idx_images}: 5 images cannot give each of user_count=8 users one"
    with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
        io.synthesize_users(spec)
    config = tmp_path / "idx.cfg"
    config.write_text(emit_config(spec))
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["run", "--config", str(config)])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == f"mecfl run: error: {message}"


# ------------------------------------------------------------ synthetic data

def test_synthesize_dataset_rejects_empty():
    with pytest.raises(ValidationError):
        io.synthesize_dataset(0, 4, 2, seed=0)


def test_synthesize_dataset_deterministic():
    a = io.synthesize_dataset(50, 4, 3, seed=9)
    b = io.synthesize_dataset(50, 4, 3, seed=9)
    assert a.features.tobytes() == b.features.tobytes()
    assert np.array_equal(a.labels, b.labels)


def test_synthesize_dataset_is_learnable_at_five_sigma():
    d = io.synthesize_dataset(400, 8, 3, seed=1, separation=5.0)
    test = io.synthesize_dataset(200, 8, 3, seed=2, separation=5.0)
    w = train(np.zeros(weight_dim(8, 3)), d, epochs=30, lr=0.5, seed=0)
    assert accuracy(w, test) > 0.95


def test_synthesize_dataset_range_and_classes():
    d = io.synthesize_dataset(200, 3, 5, seed=4)
    assert d.features.min() >= 0.0 and d.features.max() <= 1.0
    assert set(np.unique(d.labels)) <= set(range(5))


# ------------------------------------------------------------ user synthesis

def test_synthesize_users_shard_sizes_and_ranges():
    spec = desk_spec(seed=0, user_count=50, samples_per_user=1200, n_features=4)
    pop, datasets = io.synthesize_users(spec)
    assert pop.n_users == 50
    assert all(d.sample_count == 1200 for d in datasets)
    assert all(pop.dataset_size == 1200)
    lo, hi = spec.cpu_hz_range
    assert all((lo <= pop.cpu_hz) & (pop.cpu_hz <= hi))
    lo, hi = spec.energy_budget_range
    assert all((lo <= pop.energy_budget) & (pop.energy_budget <= hi))
    assert all(pop.channel_gain > 0)


def test_synthesize_users_single_user_gets_everything():
    spec = desk_spec(seed=0, user_count=1, samples_per_user=123)
    pop, datasets = io.synthesize_users(spec)
    assert pop.dataset_size.tolist() == [123]
    assert datasets[0].sample_count == 123


def test_synthesize_users_holds_the_pool_once():
    # 50 x 1200 samples of 16 features: the users' datasets are views of one
    # shuffled pool; a copy per user would peak at about 3.1x the pool's rows
    tracemalloc.start()
    try:
        _, datasets = io.synthesize_users(desk_spec(seed=0, user_count=50, samples_per_user=1200))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    pool_bytes = sum(d.rows.nbytes for d in datasets)
    assert peak <= 2.4 * pool_bytes, f"synthesize_users peaked at {peak / pool_bytes:.2f}x its pool"
    assert all(d.rows.base is datasets[0].rows.base and d.labels.base is datasets[0].labels.base
               for d in datasets)


def test_synthesize_users_remainder_distribution():
    spec = desk_spec(seed=0, user_count=3, samples_per_user=34)  # pool 102 -> 34 each
    pop, _ = io.synthesize_users(spec)
    assert pop.dataset_size.sum() == 102


def test_channel_gain_range_override():
    spec = desk_spec(seed=0, channel_gain_range=(1e-7, 2e-7))
    pop, _ = io.synthesize_users(spec)
    assert all((1e-7 <= pop.channel_gain) & (pop.channel_gain <= 2e-7))


def test_representative_users():
    spec = desk_spec(seed=0, user_count=20)
    pop, _ = io.synthesize_users(spec)
    center, edge = io.representative_users(pop)
    gains = pop.channel_gain
    assert gains[center] == max(gains)
    assert gains[edge] == min(gains)


def test_representative_users_break_gain_ties_by_index():
    # equal gains everywhere: the highest index is the center, the lowest the cell edge
    spec = desk_spec(seed=0, user_count=5, channel_gain_range=(1e-7, 1e-7))
    pop, _ = io.synthesize_users(spec)
    assert io.representative_users(pop) == (spec.user_count - 1, 0)


# ---------------------------------------------------------------- config

def test_config_round_trip():
    for spec in (desk_spec(seed=42, scenario="sweep_gamma", user_count=7,
                           channel_gain_range=(1e-8, 1e-6)),
                 # a '#' inside a quoted value is part of the value, not a comment
                 desk_spec(idx_images="data#1/img", idx_labels="run # 2/lbl",
                           idx_test_images="t/img", idx_test_labels="t/lbl")):
        assert io.parse_config(emit_config(spec)) == spec


def test_config_rejects_rng_seed_and_names_the_seed_to_set():
    # experiment.seed is the run's one seed; a system.rng_seed would be overridden by it
    with pytest.raises(ValidationError, match=r"line 1: .*experiment\.seed"):
        io.parse_config("system.rng_seed = 5\nexperiment.seed = 3\n")
    assert "rng_seed" not in emit_config(desk_spec(seed=5))


def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        io.parse_config("experiment.not_a_field = 3\n")


def test_config_rejects_a_line_without_an_equals_sign():
    with pytest.raises(ValidationError, match="^config line 2: expected 'key = value'$"):
        io.parse_config("experiment.seed = 1\nexperiment.user_count 3\n")


def test_config_rejects_bad_literal():
    with pytest.raises(ValidationError):
        io.parse_config("experiment.user_count = os.system('x')\n")


def test_config_refuses_a_key_set_twice_and_names_both_lines():
    # the last of the two lines used to win silently
    with pytest.raises(ValidationError, match=r"^config lines 2 and 4 both set "
                                              r"experiment\.user_count$"):
        io.parse_config("# users\nexperiment.user_count = 3\nexperiment.seed = 1\n"
                        "experiment.user_count = 4\n")


# spec values that synthesis used to refuse late, under another name or with
# numpy's bare error, and the message that now names the field
BAD_SPEC_VALUES = {
    "test_samples": (0, "test_samples must be >= 1"),
    "sweep_rounds": (0, "sweep_rounds must be >= 1"),
    "n_features": (0, "n_features must be >= 1"),
    "n_classes": (1, "n_classes must be >= 2"),
    "transmit_power_w": (0.0, "transmit_power_w must be finite and > 0, got 0.0"),
    "shadowing_sigma_db": (-1.0, "shadowing_sigma_db must be finite and >= 0, got -1.0"),
    "class_separation": (float("nan"), "class_separation must be finite, got nan"),
    "cpu_hz_range": ((0.0, 1e9), r"cpu_hz_range must lie in \(0, inf\)"),
    "energy_budget_range": ((-1.0, -0.5), r"energy_budget_range must lie in \(0, inf\)"),
    "distance_range_m": ((0.0, 500.0), r"distance_range_m must lie in \(0, inf\)"),
    "channel_gain_range": ((0.0, 1e-6), r"channel_gain_range must lie in \(0, inf\)"),
    "sweep_delta": (1.5, r"sweep_delta must lie in \[0, 1\]"),
    # some IDX paths but not all four: refused before any file is read
    "idx_test_images": ("t/img", r"IDX data needs all four idx_\* paths; unset: idx_images, "
                                 "idx_labels, idx_test_labels"),
}


@pytest.mark.parametrize("name, value", [("samples_per_user", 100), ("n_features", 3),
                                         ("n_classes", 9), ("class_separation", 8.0),
                                         ("test_samples", 7)])
def test_idx_spec_refuses_a_synthetic_data_field(name, value):
    paths = dict(idx_images="i", idx_labels="l", idx_test_images="ti", idx_test_labels="tl")
    with pytest.raises(ValidationError, match=f"^{name} shape synthetic data only"):
        desk_spec(**paths, **{name: value})
    desk_spec(**{name: value})   # synthetic data take it


def test_spec_validation():
    with pytest.raises(ValidationError):
        desk_spec(scenario="nope")
    with pytest.raises(ValidationError):
        desk_spec(user_count=0)
    with pytest.raises(ValidationError):
        desk_spec(cpu_hz_range=(2.0, 1.0))
    for name, (value, message) in BAD_SPEC_VALUES.items():
        with pytest.raises(ValidationError, match=message):
            desk_spec(**{name: value})
    desk_spec(channel_gain_range=None, shadowing_sigma_db=0.0)   # no gain range, no shadowing


# config entries of the wrong type, and the field or variable the error names
WRONG_TYPES = {
    "experiment.user_count = 'ten'": "user_count",
    "system.batch_size = 'x'": "batch_size",
    "system.bandwidth_hz = 'a'": "bandwidth_hz",
    "experiment.cpu_hz_range = 5": "cpu_hz_range",
    "system.local_epochs = 2.5": "local_epochs",
    "experiment.seed = 1.5": "seed",
    "experiment.samples_per_user = 2.5": "samples_per_user",
    "experiment.energy_budget_range = ('a', 'b')": "energy_budget_range",
    "system.rng_seed = True": "rng_seed",
}


@pytest.mark.parametrize("entry", list(WRONG_TYPES))
def test_config_rejects_a_value_of_the_wrong_type(entry):
    with pytest.raises(ValidationError, match=WRONG_TYPES[entry]):
        io.parse_config(entry + "\n")


SEED_ENTRIES = {
    "spec": lambda seed: io.run_experiment(desk_spec(seed=seed, user_count=2)),
    "--seed": lambda seed: cli._build_spec(
        cli._parser().parse_args(["run", "--seed", str(seed), "--users", "2"]), "proposed"),
    "experiment.seed": lambda seed: io.parse_config(f"experiment.seed = {seed}\n"),
}


@pytest.mark.parametrize("seed", [-1, 2**63])
@pytest.mark.parametrize("entry", list(SEED_ENTRIES))
def test_a_seed_outside_0_to_2_63_is_refused_where_it_enters(entry, seed):
    # not by numpy's default_rng, whose plain ValueError names no seed
    with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\*\*63\)"):
        SEED_ENTRIES[entry](seed)


def test_config_takes_an_integer_for_a_real_and_a_list_for_a_range():
    spec = io.parse_config("system.bandwidth_hz = 20000000\n"
                           "experiment.cpu_hz_range = [1e9, 2e9]  # cycles/s, lo = 1e9\n"
                           "  # an indented comment line\n"
                           "experiment.channel_gain_range = None\n")
    assert spec.system.bandwidth_hz == 2e7 and spec.cpu_hz_range == [1e9, 2e9]


# ---------------------------------------------------------------- sweeps

def sweep_spec(seed=0, scenario="sweep_offload"):
    return desk_spec(seed=seed, scenario=scenario, user_count=6,
                     samples_per_user=80, sweep_rounds=4)


def test_offload_sweep_grid_shape():
    rows = io.run_sweep(sweep_spec())
    assert len(rows) == 11
    values = [row["value"] for row in rows]
    assert values == sorted(values)
    assert values[0] == 0.0 and values[-1] == 1.0


def test_offload_sweep_zero_matches_static_traditional_run():
    spec = sweep_spec(seed=3)
    rows = io.run_sweep(spec)
    pop, datasets = io.synthesize_users(spec)
    test = io.load_test_dataset(spec)
    cfg = io.effective_config(spec)
    ref = run_proposed(pop, datasets, cfg, spec.sweep_rounds, test_dataset=test,
                       frozen=AllocationState.uniform(pop.n_users, delta=0.0, gamma=1.0),
                       stop_on_convergence=False)
    assert rows[0]["test_loss"] == ref.trace[-1].test_loss
    assert rows[0]["t_total"] == ref.trace[-1].t_total


def test_offload_sweep_full_delta_has_no_local_training_time():
    spec = sweep_spec(seed=2)
    rows = io.run_sweep(spec)
    pop, _ = io.synthesize_users(spec)
    cfg = io.effective_config(spec)
    center, _ = io.representative_users(pop)
    # at delta=1 the local path is the weight upload alone (uniform shares)
    from mecfl.costs import transmit_time
    from mecfl.costs import base_rate
    dim = weight_dim(spec.n_features, spec.n_classes)
    upload = transmit_time(cfg.bytes_per_weight_element * dim, 1.0 / pop.n_users,
                           base_rate(pop, cfg)[center])
    assert rows[-1]["t_local_center"] == pytest.approx(upload, rel=1e-12)
    assert rows[-1]["t_local_center"] < rows[0]["t_local_center"]


def test_gamma_sweep_grid_and_monotonicity():
    rows = io.run_sweep(sweep_spec(scenario="sweep_gamma"))
    assert len(rows) == 10
    t_center = [row["t_local_center"] for row in rows]
    e_center = [row["e_total_center"] for row in rows]
    assert all(b < a for a, b in zip(t_center, t_center[1:]))
    assert all(b > a for a, b in zip(e_center, e_center[1:]))


def test_run_sweep_rejects_non_sweep_scenario():
    with pytest.raises(ValidationError):
        io.run_sweep(desk_spec(scenario="proposed"))


# ---------------------------------------------------------------- writers & CLI

def test_run_experiment_dispatches_all_scenarios():
    base = dict(user_count=3, samples_per_user=40, max_iterations=2)
    for scenario in ("proposed", "traditional", "centralized"):
        result = io.run_experiment(desk_spec(seed=1, scenario=scenario, **base))
        assert result.iterations_used >= 1
    with pytest.raises(ValidationError):
        io.run_experiment(desk_spec(scenario="sweep_offload", **base))


def test_metrics_csv_round_trip(tmp_path):
    spec = desk_spec(seed=0, user_count=3, samples_per_user=40, max_iterations=3)
    result = io.run_experiment(spec)
    path = tmp_path / "metrics.csv"
    io.write_metrics_csv(str(path), result)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == ",".join(io.METRICS_HEADER)
    assert len(lines) == 1 + result.iterations_used
    # every cell must parse back as a plain decimal number
    for line in lines[1:]:
        for cell in line.split(","):
            float(cell)
    first = lines[1].split(",")
    assert float(first[2]) == result.trace[0].test_loss
    assert float(first[3]) == result.trace[0].t_total


def test_alloc_trace_jsonl(tmp_path):
    import json

    spec = desk_spec(seed=0, user_count=3, samples_per_user=40, max_iterations=3)
    result = io.run_experiment(spec)
    path = tmp_path / "trace.jsonl"
    io.write_alloc_trace(str(path), result)
    records = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(records) == result.iterations_used
    assert records[0]["iteration"] == 0
    assert records[-1]["delta"] == [float(v) for v in result.alloc_trace[-1].delta]


def test_cli_run_writes_outputs(tmp_path):
    out = tmp_path / "m.csv"
    trace = tmp_path / "t.jsonl"
    code = cli_main(["run", "--scenario", "traditional", "--seed", "5", "--users", "3",
                     "--max-iter", "3", "--out", str(out), "--trace", str(trace)])
    assert code == 0
    assert out.exists() and trace.exists()


def test_cli_sweep_writes_csv(tmp_path):
    out = tmp_path / "sweep.csv"
    code = cli_main(["sweep", "--scenario", "sweep_gamma", "--seed", "1", "--users", "3",
                     "--out", str(out)])
    assert code == 0
    lines = out.read_text().strip().splitlines()
    assert lines[0] == ",".join(io.SWEEP_HEADER)
    assert len(lines) == 1 + len(io.GAMMA_SWEEP_GRID)
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[0] == "sweep_gamma"
        for cell in cells[1:]:
            float(cell)


def test_cli_verify_fast_passes(capsys):
    assert cli_main(["verify", "--fast"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all(line.startswith("[PASS] ") for line in lines)


def test_cli_verify_fails_on_a_failing_check(monkeypatch, capsys):
    monkeypatch.setattr("mecfl.cli.run_all",
                        lambda fast: [CheckResult("stub check", False, "forced failure")])
    assert cli_main(["verify", "--fast"]) == 1
    assert capsys.readouterr().out.startswith("[FAIL] stub check: forced failure")


@pytest.mark.parametrize("argv, message", [
    pytest.param(["run", "--seed", "-1"], r"seed must be an integer in \[0, 2\*\*63\), got -1",
                 id="run-seed"),
    pytest.param(["run", "--users", "0"], "user_count must be >= 1", id="run-users"),
    pytest.param(["run", "--max-iter", "0"], "max_iterations must be >= 1", id="run-max-iter"),
    pytest.param(["run", "--scenario", "sweep_offload", "--out", "{tmp}/kept.csv"],
                 "cannot handle scenario 'sweep_offload'", id="run-scenario"),
    pytest.param(["sweep", "--scenario", "proposed", "--out", "{tmp}/kept.csv"],
                 "cannot handle scenario 'proposed'", id="sweep-scenario"),
    pytest.param(["run", "--out", "{tmp}/no-dir/m.csv"], "No such file or directory: .*m.csv'",
                 id="run-out"),
    pytest.param(["run", "--users", "2", "--trace", "{tmp}/no-dir/t.jsonl"],
                 "No such file or directory: .*t.jsonl'", id="run-trace"),
    pytest.param(["run", "--out", "{tmp}"], "Is a directory: '.*'", id="run-out-directory"),
    pytest.param(["run", "--config", "{tmp}/missing.cfg"],
                 "No such file or directory: .*missing.cfg'", id="run-config"),
    pytest.param(["sweep", "--out", "{tmp}/no-dir/s.csv"],
                 "No such file or directory: .*s.csv'", id="sweep-out"),
    pytest.param(["sweep", "--config", "{tmp}/missing.cfg"],
                 "No such file or directory: .*missing.cfg'", id="sweep-config"),
])
def test_cli_reports_a_bad_value_as_a_usage_error(argv, message, tmp_path, monkeypatch, capsys):
    started = []
    for name in ("run_experiment", "run_sweep"):
        run = getattr(io, name)
        monkeypatch.setattr(io, name, lambda spec, run=run: started.append(spec) or run(spec))
    kept = tmp_path / "kept.csv"
    kept.write_bytes(b"an earlier run's output\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    with pytest.raises(SystemExit) as exit_info:
        cli_main(argv)
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    # argparse's usage (wrapped to the terminal width), then one error line
    assert err.startswith(f"usage: mecfl {argv[0]} ") and "Traceback" not in err
    assert re.fullmatch(f"mecfl {argv[0]}: error: .*{message}", err.splitlines()[-1])
    # a bad value or scenario, a missing config or an unwritable output is
    # refused before any simulation starts and before any output is touched
    assert not started
    assert kept.read_bytes() == b"an earlier run's output\n"


@pytest.mark.parametrize("command, entry, message", [
    ("run", "experiment.test_samples = 0", "test_samples must be >= 1"),
    ("run", "experiment.energy_budget_range = (-1.0, -0.5)",
     r"energy_budget_range must lie in \(0, inf\), got \(-1.0, -0.5\)"),
    ("sweep", "experiment.shadowing_sigma_db = -1.0", "shadowing_sigma_db must be finite"),
    ("sweep", "experiment.sweep_rounds = 0", "sweep_rounds must be >= 1"),
    # a path that is no string used to be opened as a file descriptor
    ("run", "experiment.idx_images = 2\nexperiment.idx_labels = 'l'\n"
            "experiment.idx_test_images = 'ti'\nexperiment.idx_test_labels = 'tl'",
     "ExperimentSpec: idx_images must be a string, or None, got 2$"),
    ("sweep", "experiment.idx_labels = 'l'", r"IDX data needs all four idx_\* paths; unset: "),
])
def test_cli_refuses_a_bad_config_value_before_the_run(command, entry, message, tmp_path,
                                                       monkeypatch, capsys):
    started = []
    for name in ("run_experiment", "run_sweep"):
        monkeypatch.setattr(io, name, lambda spec: started.append(spec))
    config = tmp_path / "exp.cfg"
    config.write_text(entry + "\n")
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_info:
        cli_main([command, "--config", str(config), "--out", str(out)])
    assert exit_info.value.code == 2
    assert re.fullmatch(f"mecfl {command}: error: {message}.*",
                        capsys.readouterr().err.splitlines()[-1])
    # refused before any simulation starts and before --out is created
    assert not started and not out.exists()


@pytest.mark.parametrize("name", ["n_classes", "user_count", "samples_per_user"])
def test_cli_refuses_a_count_of_2_63_or_more(name, tmp_path, capsys):
    # a 401-digit n_classes used to end the run in a bare OverflowError traceback
    config = tmp_path / "exp.cfg"
    for value in (2**63, 10**400):
        config.write_text(f"experiment.{name} = {value}\n")
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out.csv")])
        assert exit_info.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            f"mecfl run: error: {name} must be < 2**63")


@pytest.mark.parametrize("value", ["1e999", "-1e999"])
def test_cli_refuses_a_non_finite_class_separation(value, tmp_path, capsys):
    # synthesis used to warn "invalid value encountered in divide", and the run
    # then exited naming the features' range
    config = tmp_path / "exp.cfg"
    config.write_text(f"experiment.class_separation = {value}\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "--config", str(config), "--out", str(tmp_path / "out.csv")])
    assert exit_info.value.code == 2
    assert re.fullmatch(r"mecfl run: error: class_separation must be finite, got -?inf",
                        capsys.readouterr().err.splitlines()[-1])


def test_cli_refuses_a_class_separation_whose_cluster_mean_overflows(tmp_path, capsys):
    # 1e308 * 4 overflows: synthesis used to warn "invalid value encountered in
    # divide", and the run then exited naming the features' range
    config = tmp_path / "exp.cfg"
    config.write_text("experiment.class_separation = 1e308\nexperiment.n_features = 1\n"
                      "experiment.user_count = 3\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        with pytest.raises(SystemExit) as exit_info:
            cli_main(["run", "--config", str(config)])
        with pytest.raises(ValidationError, match="^class_separation 1e"):
            io.synthesize_dataset(30, 1, 4, 0, 1e308)
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        "mecfl run: error: class_separation 1e+308 puts class 3's cluster mean at inf "
        "with n_features=1; it must be finite")


@pytest.mark.parametrize("separation", [1.5e308, -1.5e308])
def test_a_huge_finite_class_separation_at_16_features_still_synthesizes(separation):
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        spec = desk_spec(class_separation=separation, user_count=3)
        pop, _ = io.synthesize_users(spec)
        io.load_test_dataset(spec)
    assert pop.n_users == 3 and spec.n_features == 16


@pytest.mark.parametrize("command, scenario", [("run", "proposed"), ("sweep", "sweep_offload")])
@pytest.mark.parametrize("fault", ["missing-file", "bad-magic", "count-mismatch"])
def test_cli_reports_a_bad_idx_input_as_a_usage_error(command, scenario, fault, tmp_path, capsys):
    images, labels = write_idx_pair(tmp_path, np.zeros((4, 2, 2), np.uint8), [0, 1, 0, 1],
                                    image_magic=0x801 if fault == "bad-magic" else 0x803)
    test_images, test_labels = images, labels
    if fault == "missing-file":
        images = test_images = str(tmp_path / "missing.idx3-ubyte")
    if fault == "count-mismatch":   # a good training pair, a test pair of 3 images, 2 labels
        (tmp_path / "test").mkdir()
        test_images, test_labels = write_idx_pair(tmp_path / "test", np.zeros((3, 2, 2), np.uint8),
                                                  [0, 1])
    config = tmp_path / "idx.cfg"
    config.write_text(emit_config(desk_spec(
        scenario=scenario, user_count=2, max_iterations=1, sweep_rounds=1,
        idx_images=images, idx_labels=labels, idx_test_images=test_images,
        idx_test_labels=test_labels)))
    with pytest.raises(SystemExit) as exit_info:
        cli_main([command, "--config", str(config)])
    assert exit_info.value.code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines()[-1].startswith(f"mecfl {command}: error: ")
    assert (test_images if fault == "count-mismatch" else images) in err.splitlines()[-1]


def test_cli_sweep_takes_no_iteration_cap(capsys):
    # a sweep runs sweep_rounds per point; --max-iter used to be accepted and ignored
    with pytest.raises(SystemExit) as exit_info:
        cli_main(["sweep", "--users", "3", "--max-iter", "1"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.splitlines()[-1].endswith(
        "error: unrecognized arguments: --max-iter 1")


def test_cli_sweep_without_out_prints_one_line_per_point(capsys):
    assert cli_main(["sweep", "--scenario", "sweep_gamma", "--seed", "1", "--users", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(io.GAMMA_SWEEP_GRID)
    assert all(re.fullmatch(rf"  value {value:.2f}  test loss \d\.\d{{6}}  "
                            r"round time \d+\.\d{6} s", line)
               for value, line in zip(io.GAMMA_SWEEP_GRID, lines))


@pytest.mark.parametrize("existing", [False, True], ids=["new-out", "existing-out"])
def test_cli_failed_run_leaves_no_new_output_and_keeps_an_existing_one(existing, tmp_path,
                                                                       capsys):
    # this run fails at iteration 1 (user 12 is left a CPU fraction of 0); each
    # output that the writability check created used to be left behind, empty
    config = tmp_path / "budget.cfg"
    config.write_text("experiment.energy_budget_range = (5e-3, 2e-2)\n")
    out, trace = tmp_path / "failed_out.csv", tmp_path / "failed_trace.jsonl"
    if existing:
        out.write_bytes(b"an earlier run's output\n")
    code = cli_main(["run", "--scenario", "traditional", "--users", "50", "--seed", "0",
                     "--config", str(config), "--out", str(out), "--trace", str(trace)])
    assert code == 1 and "gamma=0 with local data" in capsys.readouterr().err
    assert not trace.exists()
    if existing:
        assert out.read_bytes() == b"an earlier run's output\n"
    else:
        assert not out.exists()


def test_cli_reports_a_failed_run_on_one_line(tmp_path, capsys):
    # every input is valid, but round 1 of this run leaves user 12 a CPU
    # fraction of 0 with local data to train on: no traceback, no usage text
    config = tmp_path / "budget.cfg"
    config.write_text("experiment.energy_budget_range = (5e-3, 2e-2)\n")
    code = cli_main(["run", "--scenario", "traditional", "--users", "50", "--seed", "0",
                     "--config", str(config)])
    assert code == 1
    assert capsys.readouterr().err == ("mecfl run: error: iteration 1: user 12: gamma=0 "
                                       "with local data to train on\n")


def test_cli_run_with_config_file(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(emit_config(desk_spec(seed=2, user_count=3,
                                                 samples_per_user=40, max_iterations=2)))
    out = tmp_path / "m.csv"
    code = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert out.exists()
