"""End-to-end benchmark of the avil trainer, with an optional traced run.

Run from the repository root:

    python3 avilbench/run.py --workload avil-tune --seed 1 --seconds 25 --trace 0

Each run builds the workload's synthetic data pool with
``harness.load_pools`` (``pair_seed`` = the seed) and calls
``harness.run_experiment`` on it, one training seed (= the seed) per call,
rebuilding the pool before each call, for at least ``--seconds`` seconds. Every call's output files are
checked and digested. With ``--trace 0`` the end-to-end metrics are
reported, measured with tracing off; with ``--trace 1`` untraced and traced
calls alternate and the per-layer metrics are reported. The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``. README.md in this directory
describes the workloads and metrics.

Scratch files go under ``.bench_work/`` in the repository root: one
result file per run (with the environment), and the spans of traced runs.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from contextlib import nullcontext
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src"

# The benchmark measures the sources of its own checkout, never an installed copy.
if not (SOURCES / "avil" / "__init__.py").is_file():
    print(f"error: no avil sources under {SOURCES}", file=sys.stderr)
    sys.exit(2)
sys.path.insert(0, str(SOURCES))

import numpy as np
import scipy
from avil import harness, model, weighting

import layers
import outputs
import spans

MIN_REPS = 3  # timed calls (and set-ups) per --trace 0 run, after one warm-up call
SETUP_REPS = 3  # traced set-ups per --trace 1 run
MIN_TRACE_REPS = 2  # timed calls of each kind per --trace 1 run, after the warm-up
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = (
    ("setup_s", "s"),
    ("epoch_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("target_dev_loss", "nats"),
    ("ok_frac", "ratio"),
)


@dataclass(frozen=True)
class Workload:
    """One experiment configuration; the seed picks data and training seed."""

    method: str
    dtype: str
    train: int
    dev: int
    epochs: int
    test: int = 500
    diw_patience: int = 10

    def config(self, seed, out_dir):
        # The pool holds 10% more training images than the subset, so the
        # desk-scale subset draw in harness.seed_datasets runs as it does at
        # desk scale.
        return harness.ExperimentConfig(
            method=self.method,
            target="tl",
            seeds=(seed,),
            epochs=self.epochs,
            dtype=self.dtype,
            train_subset=self.train,
            dev_size=self.dev,
            diw_patience=self.diw_patience,
            data_source="synthetic",
            pair_seed=seed,
            synthetic_n=self.dev + self.train + self.train // 10,
            synthetic_test_n=self.test,
            out_dir=str(out_dir),
        )


WORKLOADS = {
    # Alpha tuning dominates: 10 dev-gradient passes per epoch at batch 512.
    "avil-tune": Workload("avil", "float32", train=400, dev=400, epochs=2),
    # Joint-loss SGD at batch 256 dominates; no tuning.
    "multitask-train": Workload("multitask", "float32", train=2000, dev=400, epochs=3),
    # Tape-free float64 evaluation dominates. Patience 1 fixes the attempts
    # per epoch: at this length the model is still on its initial plateau,
    # so whether a joint pass beats the best accuracy is a coin toss.
    "diw-eval": Workload("diw", "float64", train=400, dev=1200, epochs=2, diw_patience=1),
}


def environment(avil_workers):
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):  # numpy < 2 prints its configuration only
        blas = "unknown"
    task_dir = Path("/proc/self/task")
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "os_threads": len(list(task_dir.iterdir())) if task_dir.is_dir() else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "thread_env": {name: os.environ.get(name) for name in THREAD_VARS},
        "AVIL_WORKERS": avil_workers,
    }


def load_pools(config, tracers):
    """Build the pool once per tracer (None for untraced); return the last."""
    times = []
    pools = None
    for tracer in tracers:
        pools = None
        gc.collect()
        start = time.perf_counter()
        with tracer.installed() if tracer else nullcontext():
            pools = harness.load_pools(config)
        times.append(time.perf_counter() - start)
    return pools, times


def checkpoint_dev_loss(config, pools, run_dir, seed):
    """Target dev loss of the best target snapshot.

    For methods whose rows carry no target dev loss (multitask).
    """
    path = Path(run_dir) / f"seed{seed}_{config.target}.ckpt"
    values, task_ids = model.load_checkpoint(path)
    _, dev = harness.seed_datasets(config, pools[0], seed)
    net = model.build_model(task_ids, seed, dtype=config.dtype)
    net.restore(values)
    return weighting.evaluate(net, dev, config.target, config.eval_batch_size)[1]


def run_once(workload, seed, pools, work_dir, tracer=None):
    """One timed ``run_experiment`` call; returns (wall seconds, Outcome)."""
    out_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work_dir))
    config = workload.config(seed, out_dir)
    gc.collect()
    start = time.perf_counter()
    with tracer.installed() if tracer else nullcontext():
        run_dir = harness.run_experiment(config, pools)
    wall = time.perf_counter() - start
    outcome = outputs.check_run(run_dir, config)
    for s, loss in outcome.target_dev_loss.items():
        if loss is None:
            outcome.target_dev_loss[s] = checkpoint_dev_loss(config, pools, run_dir, s)
    shutil.rmtree(out_dir)
    return wall, outcome


def measure(workload, seed, seconds, work_dir):
    """End-to-end metrics with tracing off."""
    config = workload.config(seed, work_dir)
    pools, setup_times = load_pools(config, [None])
    # The first call warms up (the process grows its heap); it is checked
    # but not timed, and the peak memory is read after it.
    _, outcome = run_once(workload, seed, pools, work_dir)
    peak_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    walls, outcomes = [], [outcome]
    start = time.perf_counter()
    while len(walls) < MIN_REPS or time.perf_counter() - start < seconds:
        # Rebuilding the pool before each call spreads the set-up samples
        # over the run, as the calls are, so that both see the same
        # changes in machine speed.
        pools, times = load_pools(config, [None])
        setup_times += times
        wall, outcome = run_once(workload, seed, pools, work_dir)
        walls.append(wall)
        outcomes.append(outcome)
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    losses = list(outcomes[0].target_dev_loss.values())
    metrics = {
        "setup_s": statistics.median(setup_times),
        "epoch_s": statistics.median(walls) / (config.effective_epochs * len(config.seeds)),
        "peak_rss_mb": peak_mib,
        "target_dev_loss": statistics.fmean(losses) if losses else None,
        "ok_frac": (attempted - failed) / attempted,
    }
    detail = {"setup_s": setup_times, "walls_s": walls}
    return metrics, outcomes, [], detail


def measure_traced(workload, seed, seconds, work_dir):
    """Per-layer metrics from traced calls alternating with untraced ones."""
    config = workload.config(seed, work_dir)
    setup_tracers = [spans.Tracer() for _ in range(SETUP_REPS)]
    pools, _ = load_pools(config, setup_tracers)
    _, outcome = run_once(workload, seed, pools, work_dir)
    untraced, traced, tracers, outcomes = [], [], [], [outcome]
    start = time.perf_counter()
    while (
        len(traced) < MIN_TRACE_REPS
        or time.perf_counter() - start < seconds
        or len(untraced) > len(traced)
    ):
        tracer = spans.Tracer() if len(untraced) > len(traced) else None
        wall, outcome = run_once(workload, seed, pools, work_dir, tracer)
        (traced if tracer else untraced).append(wall)
        if tracer:
            tracers.append(tracer)
        outcomes.append(outcome)
    probe = layers.op_probe(config.dtype, seed)
    tasks = len(pools[0].labels)
    epochs = config.effective_epochs
    metrics = layers.layer_metrics(setup_tracers, tracers, tasks, epochs, untraced, traced, probe)
    problems = []
    for tracer in setup_tracers + tracers:
        problems += spans.nesting_errors(tracer.spans)
    problems += layers.repeat_errors([layers.rep_values(t, tasks, epochs) for t in tracers])
    problems += layers.repeat_errors([layers.rep_values(t, tasks, epochs) for t in setup_tracers])
    detail = {
        "untraced_walls_s": untraced,
        "traced_walls_s": traced,
        "spans": [
            {"kind": kind, "spans": [s[:4] for s in t.spans]}
            for kind, group in (("setup", setup_tracers), ("run", tracers))
            for t in group
        ],
    }
    return metrics, outcomes, problems, detail


def main(argv=None, workloads=WORKLOADS):
    parser = argparse.ArgumentParser(description="avil end-to-end and per-layer benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--work-dir", default=str(ROOT / ".bench_work"),
                        help="directory for scratch runs, results and traces")
    args = parser.parse_args(argv)

    # run_experiment must see the default worker count.
    avil_workers = os.environ.pop("AVIL_WORKERS", None)
    work_dir = Path(args.work_dir)
    work_dir.mkdir(parents=True, exist_ok=True)
    workload = workloads[args.workload]
    if args.trace:
        metrics, outcomes, problems, detail = measure_traced(workload, args.seed, args.seconds, work_dir)
        units = dict(layers.PER_LAYER)
    else:
        metrics, outcomes, problems, detail = measure(workload, args.seed, args.seconds, work_dir)
        units = dict(END_TO_END)
    for outcome in outcomes:
        problems += outcome.problems
    digests = sorted({o.digest for o in outcomes})
    if len(digests) > 1:
        problems.append(f"seed*.csv digests differ between calls: {digests}")

    env = environment(avil_workers)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {
        "correct": not problems,
        "attempted": sum(o.attempted for o in outcomes),
        "failed": sum(o.failed for o in outcomes),
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env,
              "digests": digests, "problems": problems, **result}
    if args.trace:
        traces = work_dir / "traces"
        traces.mkdir(exist_ok=True)
        (traces / f"{name}.json").write_text(json.dumps(detail.pop("spans")), encoding="utf-8")
    record["detail"] = detail
    results = work_dir / "results"
    results.mkdir(exist_ok=True)
    (results / f"{name}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print("env " + json.dumps(env, sort_keys=True))
    for digest in digests:
        print(f"digest sha256:{digest}")
    for problem in problems:
        print(f"problem: {problem}")
    for key, unit in units.items():
        print(f"{key:<34} {metrics[key]!r:>24} {unit}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
