"""Tests of the benchmark itself, at tiny sizes.

Run from the repository root: ``python -m pytest -q avilbench``.
"""

from __future__ import annotations

import functools
import json
import os
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import run  # first: it puts the checkout's src/ on the import path

import layers
import spans
from avil import weighting

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))

TINY = {
    "avil-tune": run.Workload("avil", "float32", train=40, dev=40, epochs=2, test=20),
    "multitask-train": run.Workload("multitask", "float32", train=60, dev=20, epochs=2, test=20),
    "diw-eval": run.Workload("diw", "float64", train=30, dev=60, epochs=2, test=20, diw_patience=3),
}


@pytest.fixture(autouse=True)
def small_op_probe(monkeypatch):
    monkeypatch.setattr(layers, "op_probe", functools.partial(layers.op_probe, batch=8, reps=1))


class Diverging(run.Workload):
    """A workload whose huge learning rate drives the training loss to NaN."""

    def config(self, seed, out_dir):
        return replace(super().config(seed, out_dir), learning_rate=1e300)


def bench(capsys, tmp_path, workload, trace, seed=3, workloads=TINY):
    argv = ["--workload", workload, "--seed", str(seed), "--seconds", "0",
            "--trace", str(trace), "--work-dir", str(tmp_path)]
    assert run.main(argv, workloads=workloads) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


def test_benchmark_json_lists_the_benchmark_names():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(layers.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in BENCHMARK["end_to_end"]}
    assert max(bounds.values()) == bounds["setup_s"] <= 0.25


@pytest.mark.parametrize("workload", sorted(TINY))
def test_every_end_to_end_metric_is_printed_with_its_unit(capsys, tmp_path, workload):
    lines, result = bench(capsys, tmp_path, workload, trace=0)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= run.MIN_REPS
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(run.END_TO_END)
    for name, unit in run.END_TO_END:
        value = result["metrics"][name]["value"]
        assert value > 0
        assert any(line.split() == [name, repr(value), unit] for line in lines)
    assert result["metrics"]["ok_frac"]["value"] == 1.0
    assert sum(line.startswith("digest sha256:") for line in lines) == 1
    env = json.loads(next(line for line in lines if line.startswith("env "))[4:])
    assert env["nproc"] >= 1 and env["numpy"] and "AVIL_WORKERS" in env


def test_every_per_layer_metric_is_printed_and_tracing_only_observes(capsys, tmp_path):
    untraced_lines, _ = bench(capsys, tmp_path, "avil-tune", trace=0)
    lines, result = bench(capsys, tmp_path, "avil-tune", trace=1)
    assert result["correct"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == dict(layers.PER_LAYER)
    for name, unit in layers.PER_LAYER:
        assert any(line.split()[::2] == [name, unit] for line in lines)
    digest = [line for line in lines if line.startswith("digest")]
    assert digest == [line for line in untraced_lines if line.startswith("digest")]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    assert values["weighting.alpha_gradient.calls"] == 2 * run.harness.ExperimentConfig().tune_steps
    assert values["autodiff.backward.calls"] > 0 and values["autodiff.conv2d.s"] > 0
    assert 0 <= values["trace.unattributed_frac"] < 1


def test_spans_nest_inside_their_parents_with_non_negative_self_time(tmp_path):
    workload = TINY["diw-eval"]
    pools = run.harness.load_pools(workload.config(1, tmp_path))
    tracer = spans.Tracer()
    run.run_once(workload, 1, pools, tmp_path, tracer)
    assert len(tracer.spans) > 100
    assert spans.nesting_errors(tracer.spans) == []
    assert min(spans.self_times(tracer.spans)) >= -1e-9
    assert [s[0] for s in tracer.spans if s[3] < 0] == ["harness.run_experiment"]
    assert weighting.evaluate.__name__ == "evaluate" and not hasattr(weighting.evaluate, "__wrapped__")


def test_counts_repeat_exactly_between_traced_runs(capsys, tmp_path, monkeypatch):
    attempts = []
    diw_train = weighting.diw_train

    def recording(*args, **kwargs):
        result = diw_train(*args, **kwargs)
        attempts.append(sum(row.diw_attempts for row in result.rows))
        return result

    monkeypatch.setattr(weighting, "diw_train", recording)
    runs = [bench(capsys, tmp_path, "diw-eval", trace=1)[1]["metrics"] for _ in range(2)]
    for name in layers.EXACT:
        assert runs[0][name]["value"] == runs[1][name]["value"], name
    assert len(set(attempts)) == 1
    assert runs[0]["weighting.diw.attempts"]["value"] == attempts[0]
    epochs = TINY["diw-eval"].epochs
    assert runs[0]["weighting.diw.useful_frac"]["value"] == pytest.approx(epochs / attempts[0])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_diverging_loss_is_counted_as_failed_not_a_crash(capsys, tmp_path):
    workloads = {"diverge": Diverging("multitask", "float32", train=600, dev=20, epochs=2, test=20)}
    lines, result = bench(capsys, tmp_path, "diverge", trace=0, workloads=workloads)
    assert result["attempted"] >= run.MIN_REPS
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0
    assert not result["correct"]
    assert any(line.startswith("problem:") and "failed" in line for line in lines)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(Path(run.__file__).parent, tmp_path / "avilbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, *BENCHMARK["command"][1:], "--workload", "avil-tune", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
