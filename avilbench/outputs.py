"""Checks on the files ``harness.run_experiment`` writes, and their digest.

Every seed must be ``ok`` in ``summary.csv`` or recorded there as
``failed:*``; an ok seed must have one ``seed<k>.csv`` row per epoch with
every loss, alpha and weight finite. The digest is a SHA-256 over the
names and bytes of the ``seed*.csv`` files, which reruns of the same code
and seed reproduce byte for byte.
"""

from __future__ import annotations

import csv
import hashlib
import math
from dataclasses import dataclass, field
from pathlib import Path

# Column prefixes each method fills in on every epoch row.
REQUIRED_COLUMNS = {
    "avil": ("train_loss_", "dev_acc_", "target_dev_loss", "alpha_", "weight_"),
    "diw": ("train_loss_", "dev_acc_", "target_dev_loss", "weight_"),
    "multitask": ("train_loss_", "dev_acc_"),
}


@dataclass
class Outcome:
    """What one ``run_experiment`` call produced, as read back from disk."""

    attempted: int = 0
    failed: int = 0
    digest: str = ""
    target_dev_loss: dict = field(default_factory=dict)  # ok seed -> last-epoch loss or None
    problems: list = field(default_factory=list)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def seed_csv_digest(run_dir):
    digest = hashlib.sha256()
    for path in sorted(Path(run_dir).glob("seed*.csv")):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def _finite(cell):
    try:
        return math.isfinite(float(cell))
    except ValueError:
        return False


def _check_seed_rows(rows, method, epochs, seed):
    problems = []
    if [row["epoch"] for row in rows] != [str(e) for e in range(1, epochs + 1)]:
        problems.append(f"seed {seed}: epochs {[row['epoch'] for row in rows]}, expected 1..{epochs}")
    required = REQUIRED_COLUMNS.get(method, ())
    for row in rows:
        for column, cell in row.items():
            if column == "epoch":
                continue
            if cell == "":
                if column.startswith(required):
                    problems.append(f"seed {seed} epoch {row['epoch']}: {column} is empty")
            elif not _finite(cell):
                problems.append(f"seed {seed} epoch {row['epoch']}: {column}={cell} is not finite")
            elif column.startswith("dev_acc_") and not 0.0 <= float(cell) <= 100.0:
                problems.append(f"seed {seed} epoch {row['epoch']}: {column}={cell} is not a percentage")
    return problems


def check_run(run_dir, config):
    """Read back and check one run directory written for ``config``."""
    run_dir = Path(run_dir)
    out = Outcome(digest=seed_csv_digest(run_dir))
    summary = read_rows(run_dir / "summary.csv")
    epochs = config.effective_epochs
    for seed in config.seeds:
        out.attempted += 1
        rows = [row for row in summary if row["seed"] == str(seed)]
        if any(row["status"].startswith("failed:") for row in rows):
            out.failed += 1
            continue
        if not rows or any(row["status"] != "ok" for row in rows):
            out.problems.append(f"seed {seed}: summary rows {rows}")
            continue
        for row in rows:
            for key in ("dev_acc", "test_acc"):
                if not (_finite(row[key]) and 0.0 <= float(row[key]) <= 100.0):
                    out.problems.append(f"seed {seed} task {row['task']}: {key}={row[key]!r}")
        seed_rows = read_rows(run_dir / f"seed{seed}.csv")
        out.problems += _check_seed_rows(seed_rows, config.method, epochs, seed)
        last = seed_rows[-1]["target_dev_loss"] if seed_rows else ""
        out.target_dev_loss[seed] = float(last) if _finite(last) else None
    if out.failed:
        out.problems.append(f"{out.failed} of {out.attempted} seeds failed")
    return out
