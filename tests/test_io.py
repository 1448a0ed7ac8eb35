import re
import struct

import numpy as np
import pytest

from mecfl import cli, io
from mecfl.cli import main as cli_main
from mecfl.errors import BadMagic, CountMismatch, TruncatedFile, ValidationError
from mecfl.learning import train, accuracy, weight_dim
from mecfl.orchestrator import run_proposed
from mecfl.verify import CheckResult

from helpers import desk_spec


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
    with pytest.raises(BadMagic):
        io.load_idx(img, lbl)


def test_load_idx_count_mismatch(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1])
    with pytest.raises(CountMismatch):
        io.load_idx(img, lbl)


def test_load_idx_truncated_reports_offset(tmp_path):
    img, lbl = write_idx_pair(tmp_path, np.zeros((3, 2, 2), np.uint8), [0, 1, 2],
                              truncate_images=5)
    with pytest.raises(TruncatedFile) as excinfo:
        io.load_idx(img, lbl)
    assert excinfo.value.offset == 16


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
    return desk_spec(seed=3, data_source="idx", user_count=2, max_iterations=2,
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
    spec = desk_spec(seed=42, scenario="sweep_gamma", user_count=7,
                     channel_gain_range=(1e-8, 1e-6), output_path="out.csv")
    assert io.parse_config(io.emit_config(spec)) == spec


def test_config_rejects_rng_seed_and_names_the_seed_to_set():
    # experiment.seed is the run's one seed; a system.rng_seed would be overridden by it
    with pytest.raises(ValidationError, match=r"line 1: .*experiment\.seed"):
        io.parse_config("system.rng_seed = 5\nexperiment.seed = 3\n")
    assert "rng_seed" not in io.emit_config(desk_spec(seed=5))


def test_config_rejects_unknown_keys():
    with pytest.raises(ValidationError):
        io.parse_config("experiment.not_a_field = 3\n")


def test_config_rejects_bad_literal():
    with pytest.raises(ValidationError):
        io.parse_config("experiment.user_count = os.system('x')\n")


def test_config_env_seed_override(tmp_path, monkeypatch):
    path = tmp_path / "exp.cfg"
    path.write_text(io.emit_config(desk_spec(seed=1)))
    monkeypatch.setenv(io.SEED_ENV_VAR, "99")
    assert io.load_config(str(path)).seed == 99
    monkeypatch.delenv(io.SEED_ENV_VAR)
    assert io.load_config(str(path)).seed == 1


def test_spec_validation():
    with pytest.raises(ValidationError):
        desk_spec(scenario="nope")
    with pytest.raises(ValidationError):
        desk_spec(user_count=0)
    with pytest.raises(ValidationError):
        desk_spec(cpu_hz_range=(2.0, 1.0))


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
    f"{io.SEED_ENV_VAR}=abc": io.SEED_ENV_VAR,
}


@pytest.mark.parametrize("entry", list(WRONG_TYPES))
def test_config_rejects_a_value_of_the_wrong_type(entry, tmp_path, monkeypatch):
    path = tmp_path / "exp.cfg"
    if entry.startswith(io.SEED_ENV_VAR):
        path.write_text(io.emit_config(desk_spec()))
        monkeypatch.setenv(io.SEED_ENV_VAR, entry.split("=", 1)[1])
    else:
        path.write_text(entry + "\n")
        monkeypatch.delenv(io.SEED_ENV_VAR, raising=False)
    with pytest.raises(ValidationError, match=WRONG_TYPES[entry]):
        io.load_config(str(path))


SEED_ENTRIES = {
    "spec": lambda seed, path: io.run_experiment(desk_spec(seed=seed, user_count=2)),
    "--seed": lambda seed, path: cli._build_spec(
        cli._parser().parse_args(["run", "--seed", str(seed), "--users", "2"]), "proposed"),
    "experiment.seed": lambda seed, path: io.parse_config(f"experiment.seed = {seed}\n"),
    io.SEED_ENV_VAR: lambda seed, path: io.load_config(str(path)),
}


@pytest.mark.parametrize("seed", [-1, 2**63])
@pytest.mark.parametrize("entry", list(SEED_ENTRIES))
def test_a_seed_outside_0_to_2_63_is_refused_where_it_enters(entry, seed, tmp_path, monkeypatch):
    # not by numpy's default_rng, whose plain ValueError names no seed
    path = tmp_path / "exp.cfg"
    path.write_text(io.emit_config(desk_spec()))
    monkeypatch.delenv(io.SEED_ENV_VAR, raising=False)
    if entry == io.SEED_ENV_VAR:
        monkeypatch.setenv(io.SEED_ENV_VAR, str(seed))
    with pytest.raises(ValidationError, match=r"seed must be an integer in \[0, 2\*\*63\)"):
        SEED_ENTRIES[entry](seed, path)


def test_config_takes_an_integer_for_a_real_and_a_list_for_a_range():
    spec = io.parse_config("system.bandwidth_hz = 20000000\n"
                           "experiment.cpu_hz_range = [1e9, 2e9]\n"
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
                       adapt=False, initial_delta=0.0, initial_gamma=1.0,
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
    assert records[-1]["delta"] == [float(v) for v in result.final_alloc.delta]


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


def test_cli_run_with_config_file(tmp_path):
    cfg_path = tmp_path / "exp.cfg"
    cfg_path.write_text(io.emit_config(desk_spec(seed=2, user_count=3,
                                                 samples_per_user=40, max_iterations=2)))
    out = tmp_path / "m.csv"
    code = cli_main(["run", "--config", str(cfg_path), "--out", str(out)])
    assert code == 0
    assert out.exists()
