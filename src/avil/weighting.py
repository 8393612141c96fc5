"""Training regimes: singletask, uniform multitask, DIW, and delta-weighted
target-task training (avil).

The avil regime runs, per epoch: (a) a delta-collection phase in which every
task trains independently from the shared base parameters on its sampled
data, with its loss scaled by the normalized task weight, producing a
parameter delta; (b) a tuning phase that optimizes per-task mixing
coefficients (alphas, reinitialized to one each epoch) by gradient descent
on the target task's development loss at the mixed parameters; (c) a
write-back of base + sum_i alpha_i * delta_i; and (d) the task-weight
update w_i <- clamp(w_i + (alpha_i - 1), floor).

All epoch passes accumulate their update as a displacement from the epoch
base rather than mutating parameters in place. This keeps two exactness
properties bit-true: scaling a loss by an exact power of two scales the
collected delta by the same factor, and an avil run over a single task
with alpha pinned to 1 retraces singletask training exactly
(tests/test_training.py::test_one_task_avil_with_unit_alphas_is_singletask).

All four regimes share one epoch loop (``_run``): each supplies only the
step that proposes the next epoch's base parameters. Every trainer reads
its settings as attributes of the run's ``harness.ExperimentConfig``
(``effective_epochs``, ``batch_size``, ``learning_rate`` and so on); this
module imports no configuration type, and the config validates the values.

The alpha gradient is computed analytically as g_i = <delta_i, grad of the
dev loss at the mixed parameters>, so one dev-set gradient pass per tuning
step serves every task.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import autodiff as ad
from . import optim
from .data import chunk_indices, sample_fraction, batches
from .errors import ConfigError
from .model import build_model, combine


class NanLossError(RuntimeError):
    """A training or tuning loss became NaN/Inf; the run for this seed is invalid."""


@dataclass
class EpochRow:
    """One per-epoch record: the data behind run CSVs and weight/alpha plots.

    ``diw_attempts``, DIW's inner-loop attempt count, is kept in memory
    only; it is not a CSV column.
    """

    epoch: int
    train_loss: dict
    dev_acc: dict
    target_dev_loss: float | None = None
    alphas: dict | None = None
    weights: dict | None = None
    diw_attempts: int | None = None


@dataclass
class BestSnapshot:
    epoch: int
    dev_accuracy: float
    params: np.ndarray


@dataclass
class TrainResult:
    task_ids: list
    rows: list
    best: dict = field(default_factory=dict)  # task id -> BestSnapshot


# ---------------------------------------------------------------------------
# shared epoch machinery


def evaluate(model, dataset, task, batch_size=512):
    """(accuracy, mean cross-entropy) of one task over a full dataset.

    Argmax ties resolve to the lowest class index.
    """
    n = len(dataset)
    if n == 0:
        raise ConfigError("cannot evaluate on an empty dataset")
    labels = dataset.labels[task]
    correct = 0
    loss_sum = 0.0
    for idx in chunk_indices(np.arange(n), batch_size):
        logits = model.forward(dataset.images[idx], task)
        pred = np.argmax(logits.data, axis=1)
        correct += int((pred == labels[idx]).sum())
        loss_sum += float(ad.cross_entropy_mean(logits, labels[idx]).data) * len(idx)
    return correct / n, loss_sum / n


def _epoch_pass(model, base, batch_list, dataset, loss_builder, learning_rate, momentum):
    """One pass of mini-batch SGD from ``base``, with a fresh velocity buffer.

    Returns (displacement, per-task mean raw loss). The model is left at
    base + displacement.
    """
    state = optim.SgdState(learning_rate, momentum, base.size, dtype=base.dtype)
    disp = np.zeros_like(base)
    loss_sums: dict = {}
    count = 0
    for idx in batch_list:
        model.restore(base + disp)
        with ad.Tape():
            loss, raw = loss_builder(model, idx)
            if not np.isfinite(loss.data):
                raise NanLossError(f"non-finite training loss {float(loss.data)}")
            ad.backward(loss)
        grad = model.gradient_vector()
        disp = optim.sgd_step(state, disp, grad)
        for task, value in raw.items():
            loss_sums[task] = loss_sums.get(task, 0.0) + value * len(idx)
        count += len(idx)
    model.restore(base + disp)
    return disp, {task: total / count for task, total in loss_sums.items()}


def _joint_loss(dataset, tasks, weights):
    """Sum of per-task losses scaled by ``weights`` on the shared input.

    The encoder runs once; every head consumes the same features, so the
    encoder gradient accumulates all tasks' contributions. One task at
    weight 1.0 is the plain cross-entropy: scaling by 1.0 is exact both
    forward and in the VJP.
    """

    def builder(model, idx):
        feats = model.features(dataset.images[idx])
        total = None
        raw = {}
        for task, w in zip(tasks, weights):
            ce = ad.cross_entropy_mean(model.head_logits(feats, task), dataset.labels[task][idx])
            raw[task] = float(ce.data)
            term = ad.scale(ce, w)
            total = term if total is None else ad.add(total, term)
        return total, raw

    return builder


def collect_delta(model, base, task, w_norm, order, dataset, cfg):
    """Delta from one weighted single-task pass starting (and ending) at base.

    The loss is scaled by the normalized task weight; the returned mean loss
    is the unscaled cross-entropy, for reporting.
    """
    if len(order) == 0:
        raise ConfigError("collect_delta requires non-empty epoch data")
    batch_list = chunk_indices(order, cfg.batch_size)
    disp, raw = _epoch_pass(
        model, base, batch_list, dataset,
        _joint_loss(dataset, [task], [w_norm]),
        cfg.learning_rate, cfg.momentum,
    )
    model.restore(base)
    return disp, raw[task]


# ---------------------------------------------------------------------------
# alpha tuning


def dev_loss_grad(model, dev_set, task, batch_size=512):
    """Callable theta -> (dev loss, dev gradient) for one task's mean loss.

    The gradient of the full-set mean is accumulated exactly as the
    batch-size-weighted average of batch gradients.
    """
    n = len(dev_set)
    if n == 0:
        raise ConfigError("development set is empty")
    labels = dev_set.labels[task]
    chunks = chunk_indices(np.arange(n), batch_size)

    def loss_grad(theta):
        model.restore(theta)
        total_loss = 0.0
        total_grad = np.zeros_like(theta)
        for idx in chunks:
            model.zero_grad()
            with ad.Tape():
                ce = ad.cross_entropy_mean(model.forward(dev_set.images[idx], task), labels[idx])
                ad.backward(ce)
            frac = len(idx) / n
            total_loss += float(ce.data) * frac
            total_grad += model.gradient_vector() * frac
        return total_loss, total_grad

    return loss_grad


def alpha_gradient(loss_grad, base, deltas, alphas):
    """g_i = <delta_i, grad L(base + sum_j alpha_j delta_j)>.

    Raises NanLossError when the dev loss or any g_i is not finite, so that
    a NaN never reaches the alphas or the written-back base.
    """
    if len(deltas) != len(alphas):
        raise ConfigError(f"{len(deltas)} deltas vs {len(alphas)} alphas")
    theta = combine(base, deltas, alphas)
    loss, grad = loss_grad(theta)
    g = np.array([float(np.dot(np.asarray(d, np.float64), np.asarray(grad, np.float64))) for d in deltas])
    if not (np.isfinite(loss) and np.all(np.isfinite(g))):
        raise NanLossError(f"non-finite dev loss {loss} or alpha gradient {g}")
    return g


def tune_alphas(loss_grad, base, deltas, steps=10, learning_rate=0.005, momentum=0.5):
    """Mixing coefficients after ``steps`` meta-SGD steps from all-ones."""
    if steps < 1:
        raise ConfigError(f"steps must be >= 1, got {steps}")
    alphas = np.ones(len(deltas), dtype=np.float64)
    state = optim.SgdState(learning_rate, momentum, len(deltas))
    for _ in range(steps):
        grad = alpha_gradient(loss_grad, base, deltas, alphas)
        alphas = optim.sgd_step(state, alphas, grad)
    return alphas


# ---------------------------------------------------------------------------
# training regimes


def _update_best(best, task, epoch, acc, params):
    prev = best.get(task)
    if prev is None or acc > prev.dev_accuracy:  # ties keep the earlier epoch
        best[task] = BestSnapshot(epoch=epoch, dev_accuracy=acc, params=params.copy())


def _run(model, dev_set, target, cfg, step):
    """The epoch loop every regime shares.

    ``step(epoch, base, best)`` proposes the next base parameters and
    returns (next base, per-task mean train loss, extra EpochRow fields).
    After each step every task is evaluated at the new base. Best snapshots
    track ``target``, or every task when ``target`` is None; only a run
    with a target records its dev loss.
    """
    tasks = model.task_ids
    tracked = tasks if target is None else [target]
    base = model.snapshot()
    best = {}
    for task in tracked:
        acc, _ = evaluate(model, dev_set, task, cfg.eval_batch_size)
        _update_best(best, task, 0, acc, base)
    rows = []
    for epoch in range(1, cfg.effective_epochs + 1):
        base, train_losses, extra = step(epoch, base, best)
        model.restore(base)
        accs, losses = {}, {}
        for task in tasks:
            accs[task], losses[task] = evaluate(model, dev_set, task, cfg.eval_batch_size)
        for task in tracked:
            _update_best(best, task, epoch, accs[task], base)
        target_loss = None if target is None else losses[target]
        rows.append(EpochRow(epoch, train_losses, accs, target_dev_loss=target_loss, **extra))
    return TrainResult(tasks, rows, best)


def singletask_train(train_set, dev_set, task, cfg, seed):
    """Plain mini-batch SGD on one task; model has only that task's head."""
    model = build_model([task], seed, dtype=cfg.np_dtype)

    def step(epoch, base, best):
        order = sample_fraction(train_set, cfg.rho, seed, epoch, key=task)
        disp, raw = _epoch_pass(
            model, base, chunk_indices(order, cfg.batch_size), train_set,
            _joint_loss(train_set, [task], [1.0]), cfg.learning_rate, cfg.momentum,
        )
        return base + disp, raw, {}

    return _run(model, dev_set, task, cfg, step)


def multitask_train(train_set, dev_set, tasks, cfg, seed):
    """Joint training: per batch, the mean of all task losses on shared input.

    Keeps one best snapshot per task.
    """
    tasks = sorted(tasks)
    if len(tasks) < 2:
        raise ConfigError("multitask training requires at least two tasks")
    model = build_model(tasks, seed, dtype=cfg.np_dtype)
    uniform = [1.0 / len(tasks)] * len(tasks)

    def step(epoch, base, best):
        batch_list = batches(train_set, cfg.batch_size, seed, epoch)
        disp, raw = _epoch_pass(
            model, base, batch_list, train_set,
            _joint_loss(train_set, tasks, uniform), cfg.learning_rate, cfg.momentum,
        )
        return base + disp, raw, {}

    return _run(model, dev_set, None, cfg, step)


def avil_train(train_set, dev_set, tasks, target, cfg, seed):
    """Delta-collection + alpha-tuning training loop optimizing one target task."""
    tasks = sorted(tasks)
    if target not in tasks:
        raise ConfigError(f"target {target!r} not in tasks {tasks}")
    model = build_model(tasks, seed, dtype=cfg.np_dtype)
    weights = np.ones(len(tasks), dtype=np.float64)

    def step(epoch, base, best):
        nonlocal weights
        w_norm = weights / weights.sum()
        deltas, train_losses = [], {}
        for i, task in enumerate(tasks):
            order = sample_fraction(train_set, cfg.rho, seed, epoch, key=task)
            delta, train_losses[task] = collect_delta(model, base, task, w_norm[i], order, train_set, cfg)
            deltas.append(delta)
        loss_grad = dev_loss_grad(model, dev_set, target, cfg.eval_batch_size)
        alphas = tune_alphas(
            loss_grad, base, deltas,
            steps=cfg.tune_steps,
            learning_rate=cfg.meta_learning_rate,
            momentum=cfg.meta_momentum,
        )
        weights = optim.clamp_weights(weights + (alphas - 1.0), cfg.clamp_floor)
        return combine(base, deltas, alphas), train_losses, dict(
            alphas={t: float(a) for t, a in zip(tasks, alphas)},
            weights={t: float(w) for t, w in zip(tasks, weights)},
        )

    return _run(model, dev_set, target, cfg, step)


def diw_train(train_set, dev_set, tasks, target, cfg, seed):
    """Discriminative importance weighting with a reset-and-retrain inner loop.

    Per epoch: each task contributes an unweighted single-task epoch from
    the shared base, scored by target dev accuracy (a_i). The inner loop
    then trains a jointly weighted epoch; if it improves on the best target
    accuracy so far it is accepted, otherwise every weight is nudged by
    eta * (a_i - a_joint), the model resets, and the loop retries, giving
    up after ``diw_patience`` attempts and accepting the best candidate.
    """
    tasks = sorted(tasks)
    if target not in tasks:
        raise ConfigError(f"target {target!r} not in tasks {tasks}")
    model = build_model(tasks, seed, dtype=cfg.np_dtype)
    weights = np.ones(len(tasks), dtype=np.float64)

    def step(epoch, base, best):
        nonlocal weights
        batch_list = batches(train_set, cfg.batch_size, seed, epoch)
        single_acc = np.zeros(len(tasks))
        for i, task in enumerate(tasks):
            _epoch_pass(
                model, base, batch_list, train_set,
                _joint_loss(train_set, [task], [1.0]), cfg.learning_rate, cfg.momentum,
            )
            single_acc[i], _ = evaluate(model, dev_set, target, cfg.eval_batch_size)
            model.restore(base)
        candidates = []
        for attempt in range(1, cfg.diw_patience + 1):
            w_norm = weights / weights.sum()
            disp, raw = _epoch_pass(
                model, base, batch_list, train_set,
                _joint_loss(train_set, tasks, list(w_norm)), cfg.learning_rate, cfg.momentum,
            )
            a_joint, _ = evaluate(model, dev_set, target, cfg.eval_batch_size)
            candidates.append((a_joint, attempt, base + disp, raw))
            if a_joint > best[target].dev_accuracy:
                break
            weights = optim.clamp_weights(weights + cfg.diw_eta * (single_acc - a_joint), cfg.clamp_floor)
            model.restore(base)
        # an accepted attempt is the only one above the best accuracy, so
        # it is also the most accurate candidate
        _, _, next_base, raw = max(candidates, key=lambda c: (c[0], -c[1]))
        return next_base, raw, dict(
            weights={t: float(w) for t, w in zip(tasks, weights)},
            diw_attempts=len(candidates),
        )

    return _run(model, dev_set, target, cfg, step)
