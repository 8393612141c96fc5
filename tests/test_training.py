"""Whole-system tests: complete training runs on a tiny synthetic
configuration, and the command line's handling of bad configuration."""

import ctypes
import inspect
import platform
import resource
import struct
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from avil import autodiff, cli, data, files, harness, model, optim, weighting
from conftest import run_python, toy_set
from test_data import write_idx_pair

# Small enough for the unit suite, large enough that the model moves off
# its initial plateau and DIW's retry loop changes its weights (seed 2).
TINY_KEYS = {
    "seeds": "1,2",
    "train.epochs": "2",
    "train.batch_size": "8",
    "train.lr": "0.1",
    "avil.s": "3",
    "eval.batch_size": "64",
    "diw.patience": "3",
    "data.source": "synthetic",
    "data.synthetic_n": "240",
    "data.synthetic_test_n": "60",
    "data.dev_size": "60",
    "data.pair_seed": "7",
}
TINY_TEXT = "".join(f"{key}={value}\n" for key, value in TINY_KEYS.items())
TINY = harness.parse_config_text(TINY_TEXT)


def run_files(config):
    """Every file a run writes except the configuration echo, by name."""
    run_dir = harness.run_experiment(config)
    return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir()) if p.name != "config.txt"}


@pytest.mark.parametrize("method", harness.METHODS)
def test_rerun_writes_byte_identical_files(tmp_path, method):
    config = replace(TINY, method=method)
    first = run_files(replace(config, out_dir=str(tmp_path / "a")))
    second = run_files(replace(config, out_dir=str(tmp_path / "b")))
    assert {"seed1.csv", "seed2.csv", "summary.csv", "aggregate.csv"} <= set(first)
    assert any(name.endswith(".ckpt") for name in first)
    assert first == second


@pytest.fixture(scope="module")
def one_worker_runs():
    """The files of each (method, dtype) run at 1 worker, made by the first worker count that needs them."""
    return {}


@pytest.mark.parametrize("workers", [2, 3, 4, 8])
@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("method", harness.METHODS)
def test_every_output_byte_is_the_same_at_1_and_n_workers(
    tmp_path, monkeypatch, one_worker_runs, method, dtype, workers
):
    config = replace(TINY, method=method, dtype=dtype)
    if (method, dtype) not in one_worker_runs:
        with monkeypatch.context() as one:
            one.setattr(autodiff, "_WORKERS", 1)
            one_worker_runs[method, dtype] = run_files(replace(config, out_dir=str(tmp_path / "one")))
    monkeypatch.setattr(autodiff, "_WORKERS", workers)
    monkeypatch.setattr(autodiff, "_SPLIT_BYTES", 0)  # every gated kernel splits
    assert run_files(replace(config, out_dir=str(tmp_path / "split"))) == one_worker_runs[method, dtype]


@pytest.mark.parametrize(
    "method, patience", [("singletask", 3), ("multitask", 3), ("avil", 3), ("diw", 1), ("diw", 3)]
)
def test_shared_dev_features_give_the_bytes_of_encoding_at_every_call(tmp_path, monkeypatch, method, patience):
    """Features a caller encodes once and shares across ``evaluate`` calls
    give the bytes of a run that encodes at every call."""
    config = replace(TINY, method=method, diw_patience=patience)
    shared = run_files(replace(config, out_dir=str(tmp_path / "shared")))
    evaluate = weighting.evaluate

    def encode_every_call(net, dataset, task, batch_size, features=None):
        return evaluate(net, dataset, task, batch_size)

    monkeypatch.setattr(weighting, "evaluate", encode_every_call)
    assert run_files(replace(config, out_dir=str(tmp_path / "fresh"))) == shared


def tiny_datasets(config, seed=2):
    return harness.seed_datasets(config, harness.load_pools(config)[0], seed)


def test_a_seeds_sets_share_the_pools_images(traced_peak):
    # desk proportions scaled down tenfold: 1000 dev images and a
    # 1000-image subset drawn from a 6000-image pool
    config = harness.ExperimentConfig(dev_size=1000, train_subset=1000)
    pool = toy_set(6000, seed=3)
    (train, dev), peak = traced_peak(lambda: harness.seed_datasets(config, pool, 1))
    assert (len(train), len(dev)) == (1000, 1000)
    assert np.shares_memory(train.pixels, pool.pixels) and np.shares_memory(dev.pixels, pool.pixels)
    assert not set(train.rows) & set(dev.rows)
    for task in ("tl", "br"):
        np.testing.assert_array_equal(train.labels[task], pool.labels[task][train.rows])
        np.testing.assert_array_equal(dev.labels[task], pool.labels[task][dev.rows])
    # row indices and labels: 0.23 MiB traced; copies of the images took 21 MiB
    assert peak < 2**20


def test_the_heads_share_one_encoder_pass_per_epoch_end(encoder_passes):
    train, dev = tiny_datasets(TINY)
    result = weighting.multitask_train(train, dev, TINY, 2)
    # one chunk: eval.batch_size 64 covers the 60-image dev set
    assert encoder_passes == [len(dev)] * (1 + len(result.rows))


def test_a_diw_patience_1_epoch_encodes_the_dev_set_three_times(encoder_passes):
    config = replace(TINY, diw_patience=1)
    train, dev = tiny_datasets(config)
    result = weighting.diw_train(train, dev, config, 2)
    # two single passes and the joint attempt; the epoch end reuses the attempt's pass
    assert encoder_passes == [len(dev)] * (1 + 3 * len(result.rows))


def test_a_diw_epoch_that_keeps_an_earlier_attempt_makes_no_extra_dev_pass(monkeypatch, encoder_passes):
    train, dev = tiny_datasets(TINY)  # diw.patience 3
    accuracies = []
    evaluate = weighting.evaluate

    def recorded(*args, **kwargs):
        acc, loss = evaluate(*args, **kwargs)
        accuracies.append(acc)
        return acc, loss

    monkeypatch.setattr(weighting, "evaluate", recorded)
    result = weighting.diw_train(train, dev, TINY, 2)
    # epoch 1 accepts its only attempt; epoch 2's three attempts tie, and
    # a tie keeps the first, whose features the epoch end reuses
    assert [row.diw_attempts for row in result.rows] == [1, 3]
    assert len(set(accuracies[8:11])) == 1  # 1 before training, 2 + 1 + 2 in epoch 1, 2 singles
    assert encoder_passes == [len(dev)] * (1 + (2 + 1) + (2 + 3))


@pytest.mark.parametrize("best_epochs, passes", [((1, 1), 1), ((1, 2), 2)], ids=["one epoch", "two epochs"])
def test_a_multitask_run_encodes_the_test_set_once_per_best_epoch(tmp_path, monkeypatch, encoder_passes,
                                                                  best_epochs, passes):
    config = replace(TINY, method="multitask", seeds=(1,), synthetic_test_n=50, out_dir=str(tmp_path))
    pools = harness.load_pools(config)
    tasks = sorted(pools[0].labels)
    net = model.build_model(tasks, 1)
    params = {1: net.snapshot(), 2: 1.5 * net.snapshot()}
    best = {task: weighting.BestSnapshot(e, 0.5, params[e].copy()) for task, e in zip(tasks, best_epochs)}
    monkeypatch.setattr(weighting, "multitask_train", lambda *args: weighting.TrainResult(tasks, [], best))
    run_dir = harness.run_experiment(config, pools)
    assert encoder_passes == [50] * passes
    # each snapshot scores as it does from a pass of its own
    expected = []
    for task in tasks:
        net.restore(best[task].params)
        expected.append(format(100.0 * weighting.evaluate(net, pools[1], task, config.eval_batch_size)[0], ".6f"))
    assert [row.split(",")[5] for row in (run_dir / "summary.csv").read_text().splitlines()[1:]] == expected


def test_diw_evaluates_once_per_single_pass_attempt_and_task_at_the_epoch_end(monkeypatch):
    """The count a benchmark can derive DIW's attempts from."""
    train, dev = tiny_datasets(TINY)  # diw.patience 3
    calls = []
    evaluate = weighting.evaluate

    def counted(*args, **kwargs):
        calls.append(args[2])
        return evaluate(*args, **kwargs)

    monkeypatch.setattr(weighting, "evaluate", counted)
    result = weighting.diw_train(train, dev, TINY, 2)
    assert max(row.diw_attempts for row in result.rows) > 1  # the retry loop ran
    assert len(calls) == 1 + sum(2 * len(train.labels) + row.diw_attempts for row in result.rows)


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_one_task_avil_with_unit_alphas_is_singletask(monkeypatch, dtype):
    config = replace(TINY, dtype=dtype, rho=0.5, epochs=3)
    train, dev = harness.seed_datasets(config, harness.load_pools(config)[0], 2)
    single = weighting.singletask_train(train, dev, config, 2)
    monkeypatch.setattr(weighting, "tune_alphas", lambda loss_grad, base, deltas, **kw: np.ones(len(deltas)))
    avil = weighting.avil_train(replace(train, labels={"tl": train.labels["tl"]}), dev, config, 2)
    assert single.best.keys() == avil.best.keys() == {"tl"}
    assert single.best["tl"].epoch == avil.best["tl"].epoch
    np.testing.assert_array_equal(single.best["tl"].params, avil.best["tl"].params)
    assert len(single.rows) == len(avil.rows) == 3
    for s, a in zip(single.rows, avil.rows):
        assert (s.train_loss, s.dev_acc, s.target_dev_loss) == (a.train_loss, a.dev_acc, a.target_dev_loss)


def read_csv(path):
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def poison_seed_2(monkeypatch, split):
    """Make ``harness.seed_datasets`` give seed 2 a NaN first image in ``split``.

    The poisoned set gets a private copy of its rows: its pixels are the
    pool's, and a NaN written there would reach every later seed.
    """
    seed_datasets = harness.seed_datasets

    def poisoned(config, pool, seed):
        train, dev = seed_datasets(config, pool, seed)
        if seed == 2:
            target = train if split == "train" else dev
            private = data.MultiMnistSet.whole(target.gather(slice(None)), target.labels, target.split)
            private.pixels[0] = np.nan
            train, dev = (private, dev) if split == "train" else (train, private)
        return train, dev

    monkeypatch.setattr(harness, "seed_datasets", poisoned)


@pytest.mark.parametrize("method", harness.METHODS)
def test_a_nan_training_loss_fails_the_seed(tmp_path, monkeypatch, method):
    poison_seed_2(monkeypatch, "train")
    run_dir = harness.run_experiment(replace(TINY, method=method, out_dir=str(tmp_path)))
    rows = read_csv(run_dir / "summary.csv")
    assert {row["status"] for row in rows if row["seed"] == "1"} == {"ok"}
    failed = [row["status"] for row in rows if row["seed"] == "2"]
    assert failed and all(status == "failed:non-finite training loss nan" for status in failed)
    assert not (run_dir / "seed2.csv").exists()


def test_a_failed_multitask_seed_counts_against_every_task(tmp_path, monkeypatch):
    poison_seed_2(monkeypatch, "train")
    run_dir = harness.run_experiment(replace(TINY, method="multitask", out_dir=str(tmp_path)))
    failed = [row["task"] for row in read_csv(run_dir / "summary.csv") if row["seed"] == "2"]
    assert failed == ["br", "tl"]
    aggregate = read_csv(run_dir / "aggregate.csv")
    counts = [(row["task"], row["split"], row["n_seeds"], row["n_failed"]) for row in aggregate]
    assert counts == [(task, split, "1", "1") for task in ("br", "tl") for split in ("dev", "test")]


def test_nan_dev_loss_fails_the_seed_at_the_tuning_step(tmp_path, monkeypatch):
    # one epoch: the NaN can only surface while tuning, not in a later
    # epoch's training loss
    poison_seed_2(monkeypatch, "dev")
    config = replace(TINY, method="avil", epochs=1, out_dir=str(tmp_path))
    run_dir = harness.run_experiment(config)
    summary = {row["seed"]: row for row in read_csv(run_dir / "summary.csv")}
    assert summary["1"]["status"] == "ok"
    assert summary["2"]["status"].startswith("failed:") and "non-finite" in summary["2"]["status"]
    assert not (run_dir / "seed2.csv").exists()
    for row in read_csv(run_dir / "aggregate.csv"):
        assert (row["task"], row["n_seeds"], row["n_failed"]) == ("tl", "1", "1")
        key = f"{row['split']}_acc"
        assert row["mean"] == row["min"] == row["max"] == summary["1"][key]


@pytest.mark.parametrize("binary", [False, True])
def test_a_writer_that_raises_mid_file_leaves_no_partial_file(tmp_path, binary):
    kept, absent = tmp_path / "kept.out", tmp_path / "absent.out"
    kept.write_bytes(b"previous\n")
    for path in (kept, absent):
        with pytest.raises(OSError, match="disk full"):
            with files.replace_atomically(path, binary=binary) as fh:
                fh.write(b"partial" if binary else "partial")
                fh.flush()
                raise OSError("disk full")
    assert kept.read_bytes() == b"previous\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["kept.out"]


def test_csv_writer_that_raises_mid_file_keeps_the_previous_file(tmp_path):
    path = tmp_path / "summary.csv"
    row = {"seed": 1, "task": "tl", "status": "ok", "best_epoch": 1, "dev_acc": 50.0, "test_acc": 40.0}
    harness.write_summary_csv(path, [row])
    before = path.read_bytes()
    with pytest.raises(KeyError):
        harness.write_summary_csv(path, [row, {"seed": 2}])  # the second row lacks its task
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["summary.csv"]


class ImagesInterrupted:
    """A one-example set whose images fail to arrive once the cache header is written."""

    labels = {"tl": np.zeros(1, dtype=np.int64), "br": np.zeros(1, dtype=np.int64)}

    def __len__(self):
        return 1

    def gather(self, positions):
        raise KeyboardInterrupt


def test_an_interrupted_cache_write_keeps_the_previous_cache(tmp_path):
    path = tmp_path / data.cache_name("train", 7)
    data.save_cache(data.make_multimnist(np.zeros((2, 28, 28)), np.arange(2), 7, split="train"), path)
    before = path.read_bytes()
    with pytest.raises(KeyboardInterrupt):
        data.save_cache(ImagesInterrupted(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


def write_report_inputs(tmp_path):
    """A finished one-seed ``avil-tl`` run directory under ``tmp_path``."""
    run = tmp_path / "avil-tl"
    run.mkdir()
    inputs = {
        "summary.csv": "seed,status\n1,ok\n",
        "aggregate.csv": "task,split,n_seeds,n_failed,min,max,mean,std_pop\ntl,test,1,0,50.0,50.0,50.0,0.0\n",
        "seed1.csv": "epoch,alpha_tl,weight_tl\n1,0.5,1.0\n",
    }
    for name, content in inputs.items():
        (run / name).write_text(content, encoding="utf-8")
    return run


@pytest.mark.parametrize(
    "broken, text",
    [
        ("aggregate.csv", "task,split,mean\ntl,test,\n"),  # fails before comparison.csv: missing columns
        ("seed1.csv", "epoch,alpha_tl\n1,0.5\n"),  # alpha_long.csv fails after its header: no weight column
    ],
)
def test_a_report_that_raises_mid_file_keeps_the_previous_files(tmp_path, broken, text):
    run = write_report_inputs(tmp_path)
    harness.report(tmp_path)
    written = (tmp_path / "comparison.csv", run / "alpha_long.csv")
    before = [p.read_bytes() for p in written]
    (run / broken).write_text(text, encoding="utf-8")
    with pytest.raises(harness.ConfigError, match=f"{run / broken}: missing column"):
        harness.report(tmp_path)
    assert [p.read_bytes() for p in written] == before
    assert list(tmp_path.rglob("*.tmp")) == []


def write_config(tmp_path, extra=""):
    """The tiny run's configuration file ending in ``extra``, whose keys replace the tiny run's."""
    given = {line.partition("=")[0] for line in extra.splitlines()}
    keys = {**TINY_KEYS, "out.dir": tmp_path / "runs"}
    text = "".join(f"{key}={value}\n" for key, value in keys.items() if key not in given)
    path = tmp_path / "run.cfg"
    path.write_text(text + extra, encoding="utf-8")
    return str(path)


def test_cli_trains_and_reports(tmp_path, capsys):
    config = write_config(tmp_path)
    assert cli.main(["train", "--config", config, "--method", "avil"]) == 0
    assert cli.main(["train", "--config", config, "--method", "multitask", "--seeds", "1"]) == 0
    assert cli.main(["report", "--run-dir", str(tmp_path / "runs")]) == 0
    out = capsys.readouterr().out
    assert "run complete" in out and "avil-tl" in out and "multitask" in out
    assert (tmp_path / "runs" / "avil-tl" / "alpha_long.csv").exists()


def cli_error(capsys, argv):
    """The single stderr line of a command that must fail."""
    assert cli.main(argv) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def config_error(tmp_path, capsys, extra):
    """The error line of a ``train`` call whose configuration ends with ``extra``."""
    return cli_error(capsys, ["train", "--config", write_config(tmp_path, extra)])


def test_one_config_error_type():
    assert data.ConfigError is model.ConfigError is optim.ConfigError is weighting.ConfigError
    assert harness.ConfigError is data.ConfigError


def test_dev_split_larger_than_the_pool_is_a_cli_error(tmp_path, capsys):
    assert "dev_size 1000" in config_error(tmp_path, capsys, "data.dev_size=1000\n")


@pytest.mark.parametrize("key, raw", [("train.epochs", "1e3"), ("seeds", "1,x"), ("train.lr", "fast")])
def test_unparsable_value_names_line_and_key(tmp_path, capsys, key, raw):
    line = config_error(tmp_path, capsys, f"{key}={raw}\n")
    # the other tiny keys and out.dir, then the key that replaces the tiny run's
    assert f"line {len(TINY_KEYS) + 1}" in line and key in line and raw in line


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["train", "--seeds", "1,x"], "'1,x'"),
        (["train", "--seeds", ""], "at least one seed is required"),
        (["train", "--target", ""], "unknown target ''"),
        (["generate", "--synthetic", "-5"], "-5"),
        (["generate"], "--mnist-dir"),
        (["generate", "--mnist-dir", "idx", "--synthetic", "30"], "--mnist-dir and --synthetic"),
    ],
)
def test_bad_flags_are_one_line_errors(tmp_path, capsys, argv, expected):
    if argv[0] == "train":
        argv = argv + ["--config", write_config(tmp_path)]
    else:
        argv = argv + ["--out", str(tmp_path / "cache")]
    assert expected in cli_error(capsys, argv)
    assert not (tmp_path / "cache").exists() and not (tmp_path / "runs").exists()


def test_generate_takes_its_defaults_from_the_config():
    args = cli.build_parser().parse_args(["generate", "--out", "cache"])
    defaults = harness.ExperimentConfig()
    assert (args.pair_seed, args.synthetic_test) == (defaults.pair_seed, defaults.synthetic_test_n)


def test_unknown_target_is_rejected_before_data_is_built(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "load_pools", lambda config: pytest.fail("data built before the check"))
    assert "'xx'" in config_error(tmp_path, capsys, "method=singletask\ntarget=xx\n")


@pytest.mark.parametrize(
    "extra, expected",
    [
        ("seeds=1,1", "seeds must be distinct, got 1,1"),
        ("train.dtype=foo", "dtype must be 'float32' or 'float64', got 'foo'"),
        ("train.dtype=int64", "got 'int64'"),
        ("train.momentum=1", "momentum must be in [0, 1), got 1.0"),
        ("avil.meta_momentum=-0.5", "meta_momentum must be in [0, 1), got -0.5"),
        ("train.epochs=-1", "epochs must be >= 0, got -1"),
        ("train.batch_size=0", "batch_size must be >= 1, got 0"),
        ("avil.s=0", "tune_steps must be >= 1, got 0"),
        ("eval.batch_size=0", "eval_batch_size must be >= 1, got 0"),
        ("train.lr=0", "learning_rate must be positive, got 0.0"),
        ("avil.meta_lr=0", "meta_learning_rate must be positive, got 0.0"),
        ("clamp.floor=0", "clamp_floor must be positive, got 0.0"),
        ("diw.eta_w=0", "diw_eta must be positive, got 0.0"),
        ("train.lr=nan", "learning_rate must be finite, got nan"),
        ("diw.patience=0", "diw_patience must be >= 1, got 0"),
        ("train.subset=0", "train_subset must be >= 1, got 0"),
        ("train.subset=-3", "train_subset must be >= 1, got -3"),
        ("train.rho=0", "rho must be in (0, 1], got 0.0"),
        ("seeds=-1", "seeds must be >= 0, got -1"),
        ("data.dev_size=0", "dev_size must be >= 1, got 0"),
        ("data.synthetic_n=0", "synthetic_n must be >= 1, got 0"),
        ("data.synthetic_test_n=0", "synthetic_test_n must be >= 1, got 0"),
        ("data.source=bogus", "data_source must be one of ('auto', 'cache', 'idx', 'synthetic'), got 'bogus'"),
    ],
)
def test_bad_values_are_rejected_before_data_is_built(tmp_path, capsys, monkeypatch, extra, expected):
    monkeypatch.setattr(harness, "load_pools", lambda config: pytest.fail("data built before the check"))
    assert expected in config_error(tmp_path, capsys, extra)
    assert not (tmp_path / "runs").exists()  # nor any run file written


@pytest.mark.parametrize(
    "line, expected",
    [
        ("train.lr=nan", "learning_rate must be finite, got nan"),
        ("avil.meta_lr=inf", "meta_learning_rate must be finite, got inf"),
        ("clamp.floor=nan", "clamp_floor must be finite, got nan"),
        ("diw.eta_w=inf", "diw_eta must be finite, got inf"),
    ],
)
def test_a_rate_that_is_not_finite_is_rejected(line, expected):
    # NaN passed the positivity check: every comparison with it is False
    with pytest.raises(harness.ConfigError, match=expected):
        harness.parse_config_text(line + "\n")


def test_every_setting_has_one_key_and_no_key_repeats():
    settings = fields(harness.ExperimentConfig)
    keys = [f.metadata["key"] for f in settings]
    assert all(isinstance(key, str) and key for key in keys)
    assert len(set(keys)) == len(keys) == len(harness._SETTINGS)
    # each parser matches its field's annotation: a default written as 1 for a float would parse "0.5" as an int
    parsers = {"str": str, "int": int, "int | None": int, "float": float, "tuple": harness.parse_seeds}
    assert {f.name: f.metadata["parse"] for f in settings} == {f.name: parsers[f.type] for f in settings}


@pytest.mark.parametrize("method", harness.METHODS)
def test_every_method_names_a_trainer_with_the_one_signature(method):
    trainer = getattr(weighting, f"{method}_train")
    assert list(inspect.signature(trainer).parameters) == ["train_set", "dev_set", "cfg", "seed"]


def test_a_key_given_twice_names_both_lines():
    with pytest.raises(harness.ConfigError, match="line 3: 'train.lr' is already set on line 1"):
        harness.parse_config_text("train.lr=0.1\ntrain.momentum=0.5\ntrain.lr=0.5\n")


@pytest.mark.parametrize("subset", [0, -3])
def test_a_train_subset_below_one_is_rejected(subset):
    # -3 once trained on all but 3 examples, and 0 wrote ok rows after no step
    with pytest.raises(harness.ConfigError, match=f"train_subset must be >= 1, got {subset}"):
        harness.parse_config_text(f"train.subset={subset}\n")
    assert harness.parse_config_text("train.subset=1\n").effective_subset == 1


def test_a_config_directory_is_a_cli_error(tmp_path, capsys):
    assert "Is a directory" in cli_error(capsys, ["train", "--config", str(tmp_path)])


def test_a_config_file_that_is_not_utf8_is_a_cli_error(tmp_path, capsys):
    path = tmp_path / "run.cfg"
    path.write_bytes(TINY_TEXT.encode("utf-8") + b"# caf\xe9\n")
    line = cli_error(capsys, ["train", "--config", str(path)])
    assert str(path) in line and "not UTF-8" in line


def test_an_out_dir_under_a_regular_file_fails_before_data_is_built(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "load_pools", lambda config: pytest.fail("data built before the check"))
    (tmp_path / "plain").write_text("", encoding="utf-8")
    assert "Not a directory" in config_error(tmp_path, capsys, f"out.dir={tmp_path / 'plain' / 'runs'}\n")


def generated_train_cache(tmp_path):
    """The train file of a generated cache pair under ``tmp_path/cache``."""
    cache = tmp_path / "cache"
    assert cli.main(["generate", "--synthetic", "30", "--synthetic-test", "10", "--pair-seed", "7",
                     "--out", str(cache)]) == 0
    return cache / data.cache_name("train", 7)


def test_a_cache_cut_inside_its_header_is_a_cli_error(tmp_path, capsys):
    train = generated_train_cache(tmp_path)
    train.write_bytes(train.read_bytes()[:8])  # inside the example count
    # data.source=auto prefers the cache files
    line = config_error(tmp_path, capsys, f"data.source=auto\ndata.dir={train.parent}\n")
    assert "truncated at offset 8" in line


def test_a_cache_count_beyond_the_file_is_a_cli_error(tmp_path, capsys):
    train = generated_train_cache(tmp_path)
    raw = train.read_bytes()
    train.write_bytes(raw[:4] + struct.pack("<Q", 2**62) + raw[12:])
    line = config_error(tmp_path, capsys, f"data.source=auto\ndata.dir={train.parent}\n")
    assert f"{train}: truncated at offset {len(raw)} ({2**62 * 3136} bytes wanted from offset 12," in line


def write_idx_dir(directory, counts):
    """Blank `train` and `t10k` IDX pairs of ``counts`` images under ``directory``."""
    for prefix, n in zip(("train", "t10k"), counts):
        images, labels = write_idx_pair(directory, np.zeros((n, 28, 28)), np.arange(n))
        images.rename(directory / f"{prefix}-images-idx3-ubyte")
        labels.rename(directory / f"{prefix}-labels-idx1-ubyte")


def test_generate_checks_the_idx_image_counts(tmp_path, capsys):
    write_idx_dir(tmp_path, (3, 3))
    line = cli_error(capsys, ["generate", "--mnist-dir", str(tmp_path), "--out", str(tmp_path / "cache")])
    assert "train pool has 3 images, expected 60000" in line
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("make", [False, True])
def test_report_without_runs_is_a_cli_error(tmp_path, capsys, make):
    run_dir = tmp_path / "runs"
    if make:
        run_dir.mkdir()
    assert "no runs found" in cli_error(capsys, ["report", "--run-dir", str(run_dir)])


@pytest.mark.parametrize(
    "text, expected",
    [
        ("task,split\ntl,test\n", "missing column(s) n_seeds, n_failed, min, max, mean, std_pop"),
        ("", "empty file, expected a header row"),
        ("task,split,n_seeds,n_failed,min,max,mean,std_pop\ntl,test,1\n", "line 2 has 3 cells, the header 8"),
        (
            "task,split,n_seeds,n_failed,min,max,mean,std_pop\ntl,test,1,0,50.0,50.0,50.0,0.0\ntl,dev,1,0,abc,1,1,0\n",
            "line 3, column min: 'abc' is not a number",
        ),
    ],
)
def test_a_malformed_aggregate_is_a_cli_error(tmp_path, capsys, text, expected):
    run = write_report_inputs(tmp_path)
    (run / "aggregate.csv").write_text(text, encoding="utf-8")
    assert cli_error(capsys, ["report", "--run-dir", str(tmp_path)]) == f"error: {run / 'aggregate.csv'}: {expected}"


@pytest.mark.parametrize(
    "name, content, byte",
    [
        ("aggregate.csv", b"task,split,n_seeds,n_failed,min,max,mean,std_pop\ntl,test,1,0,50.0,50.0,50.0,0.0\xff\n",
         79),
        ("seed1.csv", b"epoch,alpha_tl,weight_tl\n1,0.5,1.0\xfe\n", 34),
    ],
    ids=["aggregate", "seed"],
)
def test_a_run_file_that_is_not_utf8_is_a_cli_error(tmp_path, capsys, name, content, byte):
    run = write_report_inputs(tmp_path)
    (run / name).write_bytes(content)
    line = cli_error(capsys, ["report", "--run-dir", str(tmp_path)])
    assert line == f"error: {run / name}: not UTF-8 text (byte {byte}: invalid start byte)"


def test_a_cache_label_outside_0_to_9_is_a_cli_error(tmp_path, capsys):
    train = generated_train_cache(tmp_path)
    raw = bytearray(train.read_bytes())
    raw[12 + 30 * 28 * 28 * 4] = 200  # the first tl label of the 30 examples
    train.write_bytes(bytes(raw))
    line = config_error(tmp_path, capsys, f"data.source=auto\ndata.dir={train.parent}\n")
    assert line == "error: train labels of task 'tl' must be digits 0-9, got 200"


def test_auto_with_caches_of_other_pair_seeds_only_is_a_cli_error(tmp_path, capsys, monkeypatch):
    cache = generated_train_cache(tmp_path).parent  # pair seed 7
    (cache / data.cache_name("test", 9)).write_bytes(b"")
    monkeypatch.setattr(data, "synthetic_mnist", lambda n, seed: pytest.fail("synthetic digits built"))
    line = config_error(tmp_path, capsys, f"data.source=auto\ndata.dir={cache}\ndata.pair_seed=1234\n")
    assert line == (
        f"error: {cache} holds caches for pair seed(s) 7, 9 but none for data.pair_seed=1234; "
        "set data.pair_seed to one of them, or data.source=synthetic to build synthetic digits"
    )


@pytest.mark.parametrize("missing", ["test", "train"])
def test_auto_with_half_a_cache_pair_is_a_cli_error(tmp_path, capsys, monkeypatch, missing):
    cache = generated_train_cache(tmp_path).parent  # pair seed 7
    (cache / data.cache_name(missing, 7)).unlink()
    monkeypatch.setattr(data, "synthetic_mnist", lambda n, seed: pytest.fail("synthetic digits built"))
    present = "train" if missing == "test" else "test"
    line = config_error(tmp_path, capsys, f"data.source=auto\ndata.dir={cache}\n")
    assert line == (
        f"error: {cache / data.cache_name(missing, 7)} is missing but {data.cache_name(present, 7)} "
        "is there; rebuild the pair with `avil generate --pair-seed 7`, or set data.source=synthetic "
        "to build synthetic digits"
    )


@pytest.mark.parametrize("value, shown", [(np.nan, "nan"), (7.5, "7.5"), (-0.25, "-0.25")])
def test_a_cache_pixel_outside_0_to_1_is_a_cli_error(tmp_path, capsys, value, shown):
    train = generated_train_cache(tmp_path)
    raw = bytearray(train.read_bytes())
    offset = 12 + (3 * 28 * 28 + 100) * 4  # image 3, pixel 100
    raw[offset : offset + 4] = struct.pack("<f", value)
    train.write_bytes(bytes(raw))
    line = config_error(tmp_path, capsys, f"data.source=auto\ndata.dir={train.parent}\n")
    assert line == f"error: {train}: image 3 has pixel value {shown}, expected a number in [0, 1]"


@pytest.mark.parametrize("method", ["singletask", "avil"])
def test_a_rho_that_samples_nothing_is_a_cli_error(tmp_path, capsys, method):
    # 240 synthetic images less the 60-image dev split leave 180
    line = config_error(tmp_path, capsys, f"method={method}\ntrain.rho=0.001\n")
    assert "rho 0.001 samples no example out of 180" in line


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's heap thresholds")
def test_a_repeated_pass_refaults_no_heap_memory():
    autodiff._configure_process()
    net = model.build_model(["tl", "br"], seed=1, dtype=np.float32)
    loss_grad = weighting.dev_loss_grad(net, toy_set(400, seed=3), "tl", batch_size=400)
    theta = net.snapshot()
    loss_grad(theta)  # warm-up: the heap grows to what one pass needs
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    loss_grad(theta)
    # about 4.8k minor faults per pass under glibc's default thresholds
    assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 100


def no_mallopt(name):
    return SimpleNamespace()


def no_c_library(name):
    raise OSError("cannot open the C library")


def opening(c_library, other):
    """A ``ctypes.CDLL`` that opens the C library (name None) with ``c_library`` and any other with ``other``."""
    return lambda name: (c_library if name is None else other)(name)


def test_a_repeated_pass_at_2_workers_refaults_no_heap_memory(monkeypatch):
    monkeypatch.setattr(autodiff, "_WORKERS", 2)
    test_a_repeated_pass_refaults_no_heap_memory()


@pytest.mark.parametrize("lookup", [no_mallopt, no_c_library])
def test_keeping_the_heap_resident_is_a_silent_no_op_without_mallopt(monkeypatch, lookup):
    monkeypatch.setattr(ctypes, "CDLL", opening(lookup, ctypes.CDLL))
    autodiff._configure_process.__wrapped__()


# the path of numpy's bundled OpenBLAS, or None
OPENBLAS = next(iter(sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"))), None)


@pytest.mark.skipif(OPENBLAS is None, reason="numpy carries no bundled OpenBLAS")
def test_blas_runs_on_one_thread_after_the_first_kernel(tmp_path):
    # only what `avil generate` runs: the synthetic pool goes through the kernels' split
    threads = run_python("\n".join([
        "import ctypes",
        "from avil import harness",
        "harness.load_pools(harness.ExperimentConfig(data_source='synthetic', synthetic_n=40, synthetic_test_n=10))",
        f"threads = ctypes.CDLL({str(OPENBLAS)!r}).scipy_openblas_get_num_threads64_",
        "threads.restype = ctypes.c_int",
        "print(threads())",
    ]), tmp_path)
    assert int(threads) == 1


def test_a_gradient_keeps_its_bits_across_a_run(tmp_path):
    # on two BLAS threads this float64 batch-150 gradient has other last bits than on one
    keys = {**TINY_KEYS, "seeds": "1", "train.epochs": "1", "out.dir": str(tmp_path / "runs")}
    text = "".join(f"{key}={value}\n" for key, value in keys.items())
    first, second = run_python("\n".join([
        "import hashlib",
        "import numpy as np",
        "from avil import harness, model",
        "net = model.build_model(['tl', 'br'], seed=1, dtype=np.float64)",
        "gen = np.random.default_rng(3)",
        "images, labels = gen.uniform(size=(150, 1, 28, 28)).astype(np.float32), gen.integers(0, 10, size=150)",
        "def digest():",
        "    print(hashlib.sha256(net.loss_grad(images, {'tl': labels}, {'tl': 1.0})[2].tobytes()).hexdigest())",
        "digest()",
        f"harness.run_experiment(harness.parse_config_text({text!r}))",
        "digest()",
    ]), tmp_path).split()
    assert first == second


@pytest.mark.parametrize("lookup", [no_mallopt, no_c_library])
def test_pinning_blas_to_one_thread_is_a_silent_no_op_without_the_library(monkeypatch, lookup):
    monkeypatch.setattr(ctypes, "CDLL", opening(ctypes.CDLL, lookup))
    autodiff._configure_process.__wrapped__()


def test_pinning_blas_to_one_thread_is_a_silent_no_op_when_numpy_carries_no_library(monkeypatch, tmp_path):
    monkeypatch.setattr(autodiff.np, "__file__", str(tmp_path / "numpy" / "__init__.py"))
    monkeypatch.setattr(ctypes, "CDLL", opening(ctypes.CDLL, lambda name: pytest.fail(f"opened {name}")))
    autodiff._configure_process.__wrapped__()


def test_idx_source_with_wrong_image_counts_is_an_error(tmp_path):
    write_idx_dir(tmp_path, (3, 2))
    config = replace(TINY, data_source="idx", data_dir=str(tmp_path))
    with pytest.raises(harness.ConfigError, match="3 images, expected 60000"):
        harness.load_pools(config)
