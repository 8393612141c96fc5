"""Whole-system tests: complete training runs on a tiny synthetic
configuration, and the command line's handling of bad configuration."""

from dataclasses import replace

import numpy as np
import pytest

from avil import cli, data, harness, model, optim, weighting
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
    cfg = config.trainer_config()
    single = weighting.singletask_train(train, dev, "tl", cfg, 2)
    monkeypatch.setattr(weighting, "tune_alphas", lambda loss_grad, base, deltas, **kw: np.ones(len(deltas)))
    avil = weighting.avil_train(train, dev, ["tl"], "tl", cfg, 2)
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


def cli_error(tmp_path, capsys, extra):
    """The single stderr line of a ``train`` call that must fail."""
    assert cli.main(["train", "--config", write_config(tmp_path, extra)]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    return lines[0]


def test_one_config_error_type():
    assert data.ConfigError is model.ConfigError is optim.ConfigError is weighting.ConfigError
    assert harness.ConfigError is data.ConfigError


def test_dev_split_larger_than_the_pool_is_a_cli_error(tmp_path, capsys):
    assert "dev_size 1000" in cli_error(tmp_path, capsys, "data.dev_size=1000\n")


@pytest.mark.parametrize("key, raw", [("train.epochs", "1e3"), ("seeds", "1,x"), ("train.lr", "fast")])
def test_unparsable_value_names_line_and_key(tmp_path, capsys, key, raw):
    line = cli_error(tmp_path, capsys, f"{key}={raw}\n")
    assert f"line {len(TINY_KEYS) + 2}" in line and key in line and raw in line


def test_unknown_target_is_rejected_before_data_is_built(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(harness, "load_pools", lambda config: pytest.fail("data built before the check"))
    assert "'xx'" in cli_error(tmp_path, capsys, "method=singletask\ntarget=xx\n")


def test_idx_source_with_wrong_image_counts_is_an_error(tmp_path):
    for prefix, n in (("train", 3), ("t10k", 2)):
        images, labels = write_idx_pair(tmp_path, np.zeros((n, 28, 28)), np.arange(n))
        images.rename(tmp_path / f"{prefix}-images-idx3-ubyte")
        labels.rename(tmp_path / f"{prefix}-labels-idx1-ubyte")
    config = replace(TINY, data_source="idx", data_dir=str(tmp_path))
    with pytest.raises(harness.ConfigError, match="3 images, expected 60000"):
        harness.load_pools(config)
