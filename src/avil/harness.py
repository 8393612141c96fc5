"""Experiment orchestration: multi-seed runs, aggregation, CSV reports.

A run directory contains one subdirectory per experiment, holding
``config.txt`` (the resolved configuration echo), one ``seed<k>.csv`` of
per-epoch rows per seed, best-snapshot checkpoints, ``summary.csv`` with
one row per (seed, task), and ``aggregate.csv`` with min/max/mean/std over
seeds. Accuracies in CSV files are percentages; standard deviations are
population (not sample) deviations, as the ``*_std_pop`` naming records.
Each of these files is written under a temporary name and renamed into
place, so an interrupted run leaves no partial file.

Reruns with an identical configuration produce byte-identical CSV files
and checkpoints (tests/test_training.py).

``ExperimentConfig`` holds every setting of a run. Each field names its
config-file key and parser next to its default (``_setting``), and
``parse_config_text`` reads the keys from the fields. Its
``__post_init__`` checks every value, so a bad value fails before any data
is built. It is the one place a setting's range is checked: no function
below it in ``weighting``, ``optim`` or ``data`` checks it again. What is
left there checks a setting against the data (``data.split_dev``'s
``dev_size``, ``data.sample_fraction``'s empty draw). ``run_experiment`` calls
``weighting.<method>_train(train_set, dev_set, config, seed)`` for each
seed, and the trainers read their settings from the config by attribute.

How the process uses the machine (one heap arena, heap thresholds such as
``autodiff._HEAP_TRIM_THRESHOLD``, OpenBLAS on one thread) is set by
``autodiff`` before its first kernel, for a run as for any other caller.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

import numpy as np

from . import data as datamod
from . import weighting
from .errors import ConfigError
from .files import read_text, replace_atomically
from .model import build_model, save_checkpoint
from .weighting import NanLossError


DESK_TRAIN_SUBSET = 10_000
DEV_SIZE = 10_000
METHODS = ("singletask", "multitask", "diw", "avil")
DATA_SOURCES = ("auto", "cache", "idx", "synthetic")
TARGETS = (datamod.TASK_TOP_LEFT, datamod.TASK_BOTTOM_RIGHT)


def parse_seeds(raw):
    """Seeds from a comma- or space-separated list, as ``seeds=`` and ``--seeds`` give them."""
    try:
        return tuple(int(s) for s in raw.replace(",", " ").split())
    except ValueError:
        raise ConfigError(f"bad seed list {raw!r}") from None


def _setting(key, default, parse=None):
    """A config field read from the file's ``key``, parsed by ``parse`` (by default the default's type)."""
    return field(default=default, metadata={"key": key, "parse": parse or type(default)})


@dataclass
class ExperimentConfig:
    method: str = _setting("method", "avil")
    target: str = _setting("target", datamod.TASK_TOP_LEFT)
    seeds: tuple = _setting("seeds", (1, 2, 3), parse_seeds)
    scale: str = _setting("scale", "desk")
    epochs: int | None = _setting("train.epochs", None, int)
    batch_size: int = _setting("train.batch_size", 256)
    learning_rate: float = _setting("train.lr", 0.05)
    momentum: float = _setting("train.momentum", 0.9)
    rho: float = _setting("train.rho", 1.0)
    dtype: str = _setting("train.dtype", "float32")
    train_subset: int | None = _setting("train.subset", None, int)
    tune_steps: int = _setting("avil.s", 10)
    meta_learning_rate: float = _setting("avil.meta_lr", 0.005)
    meta_momentum: float = _setting("avil.meta_momentum", 0.5)
    clamp_floor: float = _setting("clamp.floor", 1e-6)
    diw_eta: float = _setting("diw.eta_w", 0.1)
    diw_patience: int = _setting("diw.patience", 10)
    eval_batch_size: int = _setting("eval.batch_size", 512)
    data_source: str = _setting("data.source", "auto")
    data_dir: str = _setting("data.dir", "data")
    pair_seed: int = _setting("data.pair_seed", 1234)
    synthetic_n: int = _setting("data.synthetic_n", 60_000)
    synthetic_test_n: int = _setting("data.synthetic_test_n", 10_000)
    dev_size: int = _setting("data.dev_size", DEV_SIZE)
    out_dir: str = _setting("out.dir", "runs")

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(f"unknown method {self.method!r}; expected one of {METHODS}")
        if self.target not in TARGETS:
            raise ConfigError(f"unknown target {self.target!r}; expected one of {TARGETS}")
        if self.scale not in ("desk", "full"):
            raise ConfigError(f"scale must be 'desk' or 'full', got {self.scale!r}")
        if self.scale == "desk" and len(self.seeds) > 5:
            raise ConfigError(f"desk scale runs at most 5 seeds, got {len(self.seeds)}")
        if not self.seeds:
            raise ConfigError("at least one seed is required")
        if len(set(self.seeds)) != len(self.seeds):
            raise ConfigError(f"seeds must be distinct, got {','.join(str(s) for s in self.seeds)}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds must be >= 0, got {min(self.seeds)}")
        if max(self.seeds) >= 2**32:  # data._rng keeps a seed's low 32 bits: larger ones alias smaller ones
            raise ConfigError(f"seeds must be < {2**32}, got {max(self.seeds)}")
        # the trainer values, checked before any data is built
        if self.effective_epochs < 0:
            raise ConfigError(f"epochs must be >= 0, got {self.effective_epochs}")
        for name in ("batch_size", "tune_steps", "diw_patience", "eval_batch_size",
                     "dev_size", "synthetic_n", "synthetic_test_n"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.train_subset is not None and self.train_subset < 1:
            raise ConfigError(f"train_subset must be >= 1, got {self.train_subset}")
        for name in ("learning_rate", "meta_learning_rate", "clamp_floor", "diw_eta"):
            value = getattr(self, name)
            if not np.isfinite(value):  # NaN passes the next check: every comparison with it is False
                raise ConfigError(f"{name} must be finite, got {value}")
            if value <= 0:
                raise ConfigError(f"{name} must be positive, got {value}")
        if not 0.0 < self.rho <= 1.0:
            raise ConfigError(f"rho must be in (0, 1], got {self.rho}")
        for name in ("momentum", "meta_momentum"):
            if not 0.0 <= getattr(self, name) < 1.0:
                raise ConfigError(f"{name} must be in [0, 1), got {getattr(self, name)}")
        if self.dtype not in ("float32", "float64"):
            raise ConfigError(f"dtype must be 'float32' or 'float64', got {self.dtype!r}")
        if self.data_source not in DATA_SOURCES:
            raise ConfigError(f"data_source must be one of {DATA_SOURCES}, got {self.data_source!r}")

    @property
    def effective_epochs(self):
        if self.epochs is not None:
            return self.epochs
        return 20 if self.scale == "desk" else 100

    @property
    def effective_subset(self):
        if self.train_subset is not None:
            return self.train_subset
        return DESK_TRAIN_SUBSET if self.scale == "desk" else None

    def run_name(self):
        if self.method in ("singletask", "avil", "diw"):
            return f"{self.method}-{self.target}"
        return self.method


# ---------------------------------------------------------------------------
# configuration file: flat key=value with dotted sections

# The config-file key and parser of each field, from the fields themselves.
_SETTINGS = {f.metadata["key"]: f for f in fields(ExperimentConfig)}


def parse_config_text(text):
    """The default config with key=value lines applied; unknown keys and keys given twice are errors."""
    values, seen = {}, {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _SETTINGS:
            raise ConfigError(f"line {lineno}: unknown configuration key {key!r}")
        if key in seen:
            raise ConfigError(f"line {lineno}: {key!r} is already set on line {seen[key]}")
        seen[key] = lineno
        setting = _SETTINGS[key]
        try:
            values[setting.name] = setting.metadata["parse"](raw)
        except ValueError:
            raise ConfigError(f"line {lineno}: bad value {raw!r} for {key!r}") from None
    return ExperimentConfig(**values)


def load_config(path, overrides=None):
    return replace(parse_config_text(read_text(path)), **(overrides or {}))


def config_echo(config):
    """Resolved configuration as sorted key=value lines (written per run)."""
    lines = []
    for f in fields(config):
        value = getattr(config, f.name)
        if f.name == "seeds":
            value = ",".join(str(s) for s in value)
        lines.append(f"{f.name}={value}")
    lines.append(f"effective_epochs={config.effective_epochs}")
    lines.append(f"effective_subset={config.effective_subset}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# data loading


def load_pools(config):
    """(train pool, test set) according to the configured data source.

    ``auto`` prefers cached generated files, then raw IDX files, then the
    synthetic source. It is a ConfigError for ``auto`` to find only one
    file of the configured pair seed's cache pair, or to fall through to
    the synthetic source while ``data_dir`` holds caches of other pair
    seeds only: the configured ``pair_seed`` is then most likely wrong.
    """
    directory = Path(config.data_dir)
    source = config.data_source
    cache_train = directory / datamod.cache_name("train", config.pair_seed)
    cache_test = directory / datamod.cache_name("test", config.pair_seed)
    if source == "auto":
        if cache_train.exists() and cache_test.exists():
            source = "cache"
        elif cache_train.exists() or cache_test.exists():
            present, missing = (cache_train, cache_test) if cache_train.exists() else (cache_test, cache_train)
            raise ConfigError(
                f"{missing} is missing but {present.name} is there; rebuild the pair with "
                f"`avil generate --pair-seed {config.pair_seed}`, or set data.source=synthetic "
                f"to build synthetic digits"
            )
        else:
            try:
                datamod.find_idx_pair(directory, "train")
                source = "idx"
            except FileNotFoundError:
                _check_no_other_caches(directory, config.pair_seed)
                source = "synthetic"
    if source == "cache":
        return (
            datamod.load_cache(cache_train, split="train"),
            datamod.load_cache(cache_test, split="test"),
        )
    if source == "idx":
        train_images, train_labels = datamod.load_idx(*datamod.find_idx_pair(directory, "train"))
        test_images, test_labels = datamod.load_idx(*datamod.find_idx_pair(directory, "t10k"))
        if len(train_images) != 60_000:
            raise ConfigError(f"{directory}: train pool has {len(train_images)} images, expected 60000")
        if len(test_images) != 10_000:
            raise ConfigError(f"{directory}: test set has {len(test_images)} images, expected 10000")
    else:  # synthetic
        train_images, train_labels = datamod.synthetic_mnist(config.synthetic_n, config.pair_seed)
        test_images, test_labels = datamod.synthetic_mnist(config.synthetic_test_n, config.pair_seed + 1)
    return (
        datamod.make_multimnist(train_images, train_labels, config.pair_seed, split="train"),
        datamod.make_multimnist(test_images, test_labels, config.pair_seed, split="test"),
    )


def _check_no_other_caches(directory, pair_seed):
    found = {
        int(match[1])
        for path in directory.glob("multimnist_*_p*.mm01")
        if (match := re.fullmatch(r"multimnist_(?:train|test)_p(-?\d+)\.mm01", path.name))
    }
    if found and pair_seed not in found:
        raise ConfigError(
            f"{directory} holds caches for pair seed(s) {', '.join(map(str, sorted(found)))} "
            f"but none for data.pair_seed={pair_seed}; set data.pair_seed to one of them, "
            f"or data.source=synthetic to build synthetic digits"
        )


def seed_datasets(config, train_pool, seed):
    """Per-seed (train, dev) pair: dev split plus optional desk-scale subset.

    Both are sets of rows of ``train_pool``'s image array; no image is copied.
    """
    train_full, dev = datamod.split_dev(train_pool, config.dev_size, seed)
    subset = config.effective_subset
    if subset is not None and subset < len(train_full):
        order = datamod.sample_fraction(train_full, 1.0, seed, 0, key="subset")
        train_full = train_full.take(np.sort(order[:subset]))
    return train_full, dev


# ---------------------------------------------------------------------------
# CSV writing

_ACC = ".6f"
_LOSS = ".8f"
_GEN = ".10g"


def _fmt(value, spec):
    return "" if value is None else format(value, spec)


def _write_csv(path, rows):
    """Write ``rows``, the header first, each a sequence of cell strings, as one CSV file."""
    with replace_atomically(path) as fh:
        fh.writelines(",".join(row) + "\n" for row in rows)


def write_seed_csv(path, result):
    """Per-epoch rows: losses, dev accuracies (percent), alphas, weights."""
    tasks = result.task_ids
    header = ["epoch"]
    header += [f"train_loss_{t}" for t in tasks]
    header += [f"dev_acc_{t}" for t in tasks]
    header += ["target_dev_loss"]
    header += [f"alpha_{t}" for t in tasks]
    header += [f"weight_{t}" for t in tasks]
    rows = [header]
    for row in result.rows:
        cells = [str(row.epoch)]
        cells += [_fmt(row.train_loss.get(t), _LOSS) for t in tasks]
        cells += [_fmt(100.0 * row.dev_acc[t] if t in row.dev_acc else None, _ACC) for t in tasks]
        cells += [_fmt(row.target_dev_loss, _LOSS)]
        cells += [_fmt(row.alphas.get(t) if row.alphas else None, _GEN) for t in tasks]
        cells += [_fmt(row.weights.get(t) if row.weights else None, _GEN) for t in tasks]
        rows.append(cells)
    _write_csv(path, rows)


def write_summary_csv(path, rows):
    _write_csv(path, [("seed", "task", "status", "best_epoch", "dev_acc", "test_acc")] + [
        (
            str(row["seed"]),
            row["task"],
            row["status"],
            "" if row.get("best_epoch") is None else str(row["best_epoch"]),
            _fmt(row.get("dev_acc"), _ACC),
            _fmt(row.get("test_acc"), _ACC),
        )
        for row in rows
    ])


_AGGREGATE_COLUMNS = ("task", "split", "n_seeds", "n_failed", "min", "max", "mean", "std_pop")


def write_aggregate_csv(path, summary_rows):
    """Aggregates over successful seeds; failures are counted, not imputed."""
    rows = [_AGGREGATE_COLUMNS]
    for task in sorted({row["task"] for row in summary_rows}):
        ok = [r for r in summary_rows if r["task"] == task and r["status"] == "ok"]
        failed = [r for r in summary_rows if r["task"] == task and r["status"] != "ok"]
        for split, key in (("dev", "dev_acc"), ("test", "test_acc")):
            if not ok:
                rows.append([task, split, "0", str(len(failed)), "", "", "", ""])
                continue
            values = np.array([r[key] for r in ok], dtype=np.float64)
            stats = (values.min(), values.max(), values.mean(), values.std(ddof=0))
            rows.append([task, split, str(len(ok)), str(len(failed)), *(_fmt(v, _ACC) for v in stats)])
    _write_csv(path, rows)


# ---------------------------------------------------------------------------
# experiment driver

def run_experiment(config, pools=None):
    """Run the configured method over all seeds; returns the run directory.

    Per seed: a dev split and optional desk subset are drawn, the method is
    trained, the best snapshot per reported task is evaluated exactly once
    on the test set, and per-epoch rows are written to CSV. A seed whose
    training, tuning or dev loss is not finite (``weighting.NanLossError``)
    is recorded as failed for every task the method reports (all tasks for
    multitask, else the target) and excluded from aggregates.
    """
    run_dir = Path(config.out_dir) / config.run_name()
    run_dir.mkdir(parents=True, exist_ok=True)  # an unusable out_dir fails before the data is built
    with replace_atomically(run_dir / "config.txt") as fh:
        fh.write(config_echo(config))
    if pools is None:
        pools = load_pools(config)
    train_pool, test_set = pools
    summary_rows = []
    for seed in config.seeds:
        train_set, dev_set = seed_datasets(config, train_pool, seed)
        try:
            # looked up per seed, so a wrapper set on the module attribute is the one called
            result = getattr(weighting, f"{config.method}_train")(train_set, dev_set, config, seed)
        except NanLossError as exc:
            reported = sorted(train_set.labels) if config.method == "multitask" else [config.target]
            summary_rows += [{"seed": seed, "task": task, "status": f"failed:{exc}"} for task in reported]
            continue
        write_seed_csv(run_dir / f"seed{seed}.csv", result)
        eval_model = build_model(result.task_ids, seed, dtype=config.dtype)
        feats_epoch = None
        for task, best in sorted(result.best.items()):
            eval_model.restore(best.params)
            if best.epoch != feats_epoch:  # the snapshots of one epoch share a test-set pass
                feats, feats_epoch = eval_model.eval_features(test_set, config.eval_batch_size), best.epoch
            test_acc, _ = weighting.evaluate(eval_model, test_set, task, config.eval_batch_size, features=feats)
            suffix = f"_{task}" if len(result.best) > 1 else ""
            save_checkpoint(run_dir / f"seed{seed}{suffix}.ckpt", best.params, result.task_ids)
            summary_rows.append({
                "seed": seed,
                "task": task,
                "status": "ok",
                "best_epoch": best.epoch,
                "dev_acc": 100.0 * best.dev_accuracy,
                "test_acc": 100.0 * test_acc,
            })
    write_summary_csv(run_dir / "summary.csv", summary_rows)
    write_aggregate_csv(run_dir / "aggregate.csv", summary_rows)
    return run_dir


# ---------------------------------------------------------------------------
# reporting


def _read_csv(path, columns):
    """Rows as dicts; a file that is not UTF-8, has no header, lacks one of
    ``columns`` or has a row of the wrong length is a ConfigError naming it."""
    lines = read_text(path).splitlines()
    if not lines:
        raise ConfigError(f"{path}: empty file, expected a header row")
    header = lines[0].split(",")
    missing = [c for c in columns if c not in header]
    if missing:
        raise ConfigError(f"{path}: missing column(s) {', '.join(missing)}")
    rows = []
    for lineno, line in enumerate(lines[1:], 2):
        cells = line.split(",")
        if len(cells) != len(header):
            raise ConfigError(f"{path}: line {lineno} has {len(cells)} cells, the header {len(header)}")
        rows.append(dict(zip(header, cells)))
    return rows


def _number(path, lineno, row, column):
    """A cell of row ``lineno`` of ``_read_csv(path, ...)`` as a float; else a ConfigError naming the cell."""
    try:
        return float(row[column])
    except ValueError:
        raise ConfigError(f"{path}: line {lineno}, column {column}: {row[column]!r} is not a number") from None


def report(run_dir):
    """Comparison table across finished runs plus per-run alpha/weight CSVs.

    Returns the table text. Run subdirectories without a summary are listed
    as incomplete; a missing directory, one without runs, or a malformed
    ``aggregate.csv``, ``summary.csv`` or ``seed*.csv`` is a ConfigError.
    ``alpha_long.csv`` holds only the seeds that ``summary.csv`` lists as ``ok``.
    """
    run_dir = Path(run_dir)
    if not run_dir.is_dir():
        raise ConfigError(f"no runs found: {run_dir} is not a directory")
    subdirs = sorted(p for p in run_dir.iterdir() if p.is_dir())
    complete = [p for p in subdirs if (p / "summary.csv").exists()]
    incomplete = [p.name for p in subdirs if not (p / "summary.csv").exists()]
    if not complete:
        raise ConfigError(f"no runs found under {run_dir}")
    lines = []
    comparison_rows = [["run", *_AGGREGATE_COLUMNS]]
    header = f"{'run':<18} {'task':<6} {'split':<5} {'min':>8} {'max':>8} {'mean':>8} {'std':>7}"
    lines.append(header)
    lines.append("-" * len(header))
    for path in complete:
        aggregate = path / "aggregate.csv"
        for lineno, row in enumerate(_read_csv(aggregate, _AGGREGATE_COLUMNS), 2):
            comparison_rows.append([path.name, *(row[c] for c in _AGGREGATE_COLUMNS)])
            if row["mean"]:
                low, high, mean, std = (_number(aggregate, lineno, row, c) for c in ("min", "max", "mean", "std_pop"))
                lines.append(
                    f"{path.name:<18} {row['task']:<6} {row['split']:<5} "
                    f"{low:>8.2f} {high:>8.2f} {mean:>8.2f} {std:>7.2f}"
                )
            else:
                lines.append(f"{path.name:<18} {row['task']:<6} {row['split']:<5} (all seeds failed)")
    if incomplete:
        lines.append("incomplete runs: " + ", ".join(incomplete))
    _write_csv(run_dir / "comparison.csv", comparison_rows)
    for path in complete:
        if not path.name.startswith("avil"):
            continue
        summary = _read_csv(path / "summary.csv", ("seed", "status"))
        alpha_rows = [["seed", "epoch", "task", "alpha", "weight"]]
        for seed_csv in sorted({path / f"seed{row['seed']}.csv" for row in summary if row["status"] == "ok"}):
            seed = seed_csv.stem.removeprefix("seed")
            for row in _read_csv(seed_csv, ("epoch",)):
                for key, value in row.items():
                    if key.startswith("alpha_") and value:
                        task = key.removeprefix("alpha_")
                        if f"weight_{task}" not in row:
                            raise ConfigError(f"{seed_csv}: missing column(s) weight_{task}")
                        alpha_rows.append([seed, row["epoch"], task, value, row[f"weight_{task}"]])
        _write_csv(path / "alpha_long.csv", alpha_rows)
    return "\n".join(lines)
