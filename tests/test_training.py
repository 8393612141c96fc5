"""Whole-system tests: complete training runs on a tiny synthetic
configuration, and the command line's handling of bad configuration."""

import platform
import resource
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from avil import cli, data, files, harness, model, optim, weighting
from conftest import toy_set
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


@pytest.mark.parametrize("dtype", ["float32", "float64"])
def test_one_task_avil_with_unit_alphas_is_singletask(monkeypatch, dtype):
    config = replace(TINY, dtype=dtype, rho=0.5, epochs=3)
    train, dev = harness.seed_datasets(config, harness.load_pools(config)[0], 2)
    single = weighting.singletask_train(train, dev, "tl", config, 2)
    monkeypatch.setattr(weighting, "tune_alphas", lambda loss_grad, base, deltas, **kw: np.ones(len(deltas)))
    avil = weighting.avil_train(train, dev, ["tl"], "tl", config, 2)
    assert single.best.keys() == avil.best.keys() == {"tl"}
    assert single.best["tl"].epoch == avil.best["tl"].epoch
    np.testing.assert_array_equal(single.best["tl"].params, avil.best["tl"].params)
    assert len(single.rows) == len(avil.rows) == 3
    for s, a in zip(single.rows, avil.rows):
        assert (s.train_loss, s.dev_acc, s.target_dev_loss) == (a.train_loss, a.dev_acc, a.target_dev_loss)


def read_csv(path):
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return [dict(zip(header.split(","), row.split(","))) for row in rows]


def test_nan_dev_loss_fails_the_seed_at_the_tuning_step(tmp_path, monkeypatch):
    # one epoch: the NaN can only surface while tuning, not in a later
    # epoch's training loss
    seed_datasets = harness.seed_datasets

    def poisoned(config, pool, seed):
        train, dev = seed_datasets(config, pool, seed)
        if seed == 2:
            dev.images[0] = np.nan
        return train, dev

    monkeypatch.setattr(harness, "seed_datasets", poisoned)
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

    @property
    def images(self):
        raise KeyboardInterrupt


def test_an_interrupted_cache_write_keeps_the_previous_cache(tmp_path):
    path = tmp_path / data.cache_name("train", 7)
    data.save_cache(data.make_multimnist(np.zeros((2, 28, 28)), np.arange(2), 7, split="train"), path)
    before = path.read_bytes()
    with pytest.raises(KeyboardInterrupt):
        data.save_cache(ImagesInterrupted(), path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == [path.name]


@pytest.mark.parametrize(
    "broken, text",
    [
        ("aggregate.csv", "task,split,mean\ntl,test,\n"),  # comparison.csv fails after its header
        ("seed1.csv", "epoch,alpha_tl\n1,0.5\n"),  # alpha_long.csv fails: no weight column
    ],
)
def test_a_report_that_raises_mid_file_keeps_the_previous_files(tmp_path, broken, text):
    run = tmp_path / "avil-tl"
    run.mkdir()
    inputs = {
        "summary.csv": "seed,status\n1,ok\n",
        "aggregate.csv": "task,split,n_seeds,n_failed,min,max,mean,std_pop\ntl,test,1,0,50.0,50.0,50.0,0.0\n",
        "seed1.csv": "epoch,alpha_tl,weight_tl\n1,0.5,1.0\n",
    }
    for name, content in inputs.items():
        (run / name).write_text(content, encoding="utf-8")
    harness.report(tmp_path)
    written = (tmp_path / "comparison.csv", run / "alpha_long.csv")
    before = [p.read_bytes() for p in written]
    (run / broken).write_text(text, encoding="utf-8")
    with pytest.raises(KeyError):
        harness.report(tmp_path)
    assert [p.read_bytes() for p in written] == before
    assert list(tmp_path.rglob("*.tmp")) == []


def write_config(tmp_path, extra=""):
    path = tmp_path / "run.cfg"
    path.write_text(TINY_TEXT + f"out.dir={tmp_path / 'runs'}\n" + extra, encoding="utf-8")
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
    assert f"line {len(TINY_KEYS) + 2}" in line and key in line and raw in line


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["train", "--seeds", "1,x"], "'1,x'"),
        (["generate", "--synthetic", "-5"], "-5"),
        (["generate"], "--mnist-dir"),
    ],
)
def test_bad_flags_are_one_line_errors(tmp_path, capsys, argv, expected):
    if argv[0] == "train":
        argv = argv + ["--config", write_config(tmp_path)]
    else:
        argv = argv + ["--out", str(tmp_path / "cache")]
    assert expected in cli_error(capsys, argv)
    assert not (tmp_path / "cache").exists() and not (tmp_path / "runs").exists()


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
        ("diw.patience=0", "diw_patience must be >= 1, got 0"),
        ("train.rho=0", "rho must be in (0, 1], got 0.0"),
    ],
)
def test_bad_values_are_rejected_before_data_is_built(tmp_path, capsys, monkeypatch, extra, expected):
    monkeypatch.setattr(harness, "load_pools", lambda config: pytest.fail("data built before the check"))
    assert expected in config_error(tmp_path, capsys, extra)


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


def test_a_cache_cut_inside_its_header_is_a_cli_error(tmp_path, capsys):
    cache = tmp_path / "cache"
    assert cli.main(["generate", "--synthetic", "30", "--synthetic-test", "10", "--pair-seed", "7",
                     "--out", str(cache)]) == 0
    train = cache / data.cache_name("train", 7)
    train.write_bytes(train.read_bytes()[:8])  # inside the example count
    # data.source=auto prefers the cache files
    line = config_error(tmp_path, capsys, f"data.source=auto\ndata.dir={cache}\n")
    assert "truncated at offset 8" in line


@pytest.mark.parametrize("method", ["singletask", "avil"])
def test_a_rho_that_samples_nothing_is_a_cli_error(tmp_path, capsys, method):
    # 240 synthetic images less the 60-image dev split leave 180
    line = config_error(tmp_path, capsys, f"method={method}\ntrain.rho=0.001\n")
    assert "rho 0.001 samples no example out of 180" in line


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="sets glibc's heap thresholds")
def test_a_repeated_pass_refaults_no_heap_memory():
    harness._keep_heap_resident()
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


@pytest.mark.parametrize("lookup", [no_mallopt, no_c_library])
def test_keeping_the_heap_resident_is_a_silent_no_op_without_mallopt(monkeypatch, lookup):
    monkeypatch.setattr(harness.ctypes, "CDLL", lookup)
    harness._keep_heap_resident.__wrapped__()


def test_idx_source_with_wrong_image_counts_is_an_error(tmp_path):
    for prefix, n in (("train", 3), ("t10k", 2)):
        images, labels = write_idx_pair(tmp_path, np.zeros((n, 28, 28)), np.arange(n))
        images.rename(tmp_path / f"{prefix}-images-idx3-ubyte")
        labels.rename(tmp_path / f"{prefix}-labels-idx1-ubyte")
    config = replace(TINY, data_source="idx", data_dir=str(tmp_path))
    with pytest.raises(harness.ConfigError, match="3 images, expected 60000"):
        harness.load_pools(config)
