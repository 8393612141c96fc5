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
step that proposes the next epoch's base parameters. Every trainer is
``<method>_train(train_set, dev_set, cfg, seed)``: the tasks are
``sorted(train_set.labels)``, the target is ``cfg.target``, and every other
setting is an attribute of the run's ``harness.ExperimentConfig``
(``effective_epochs``, ``batch_size``, ``learning_rate`` and so on).
Of the building blocks below the trainers, ``_epoch_pass`` reads
``learning_rate`` and ``momentum`` from the ``cfg`` it is given, and
``collect_delta`` reads ``batch_size`` and passes ``cfg`` on; the others
take each setting as an argument with no default. This module imports no
configuration type, and checks no setting: the config has checked them.

Every dev score is one ``evaluate`` call. ``_run`` encodes the dev set
once per set of parameters it scores and passes the features to every
head's call; DIW's step hands back the features of the attempt it keeps,
so the epoch end encodes nothing more. The number of ``evaluate`` calls
per DIW epoch is 2 * tasks + attempts.

The alpha gradient is computed analytically as g_i = <delta_i, grad of the
dev loss at the mixed parameters>, so one dev-set gradient pass per tuning
step serves every task.

Every batch gradient, training step or dev-loss pass alike, is one
``MultiHeadModel.loss_grad`` call; this module opens no tape and handles no
parameter gradient other than the flat vector that call returns.
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
    """A training, tuning or dev loss became NaN/Inf; the run for this seed is invalid."""


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


def evaluate(model, dataset, task, batch_size, features=None):
    """(accuracy, mean cross-entropy) of one task over a full dataset.

    Argmax ties resolve to the lowest class index. ``features`` is
    ``model.eval_features(dataset, batch_size)`` at the model's current
    parameters, from a caller that scores several heads there; without it
    the dataset is encoded here. The head always runs.
    """
    n = len(dataset)
    labels = dataset.labels[task]
    correct = 0
    loss_sum = 0.0
    if features is None:
        features = model.eval_features(dataset, batch_size)
    chunks = chunk_indices(np.arange(n), batch_size)
    for idx, feats in zip(chunks, features, strict=True):
        logits = model.head_logits(feats, task)
        pred = np.argmax(logits.data, axis=1)
        correct += int((pred == labels[idx]).sum())
        loss_sum += float(ad.cross_entropy_mean(logits, labels[idx]).data) * len(idx)
    return correct / n, loss_sum / n


def _epoch_pass(model, base, batch_list, dataset, weights, cfg):
    """One pass of mini-batch SGD from ``base``, with a fresh velocity buffer.

    Each batch's loss is the ``weights``-scaled sum of task losses that
    ``model.loss_grad`` computes. Returns (displacement, per-task mean raw
    loss). The model is left at base + displacement.
    """
    state = optim.SgdState(cfg.learning_rate, cfg.momentum, base.size, dtype=base.dtype)
    disp = np.zeros_like(base)
    loss_sums: dict = {}
    count = 0
    for idx in batch_list:
        model.restore(base + disp)
        labels = {task: dataset.labels[task][idx] for task in weights}
        loss, raw, grad = model.loss_grad(dataset.gather(idx), labels, weights)
        if not np.isfinite(loss):
            raise NanLossError(f"non-finite training loss {loss}")
        disp = optim.sgd_step(state, disp, grad)
        for task, value in raw.items():
            loss_sums[task] = loss_sums.get(task, 0.0) + value * len(idx)
        count += len(idx)
    model.restore(base + disp)
    return disp, {task: total / count for task, total in loss_sums.items()}


def collect_delta(model, base, task, w_norm, order, dataset, cfg):
    """Delta from one weighted single-task pass starting (and ending) at base.

    The loss is scaled by the normalized task weight; the returned mean loss
    is the unscaled cross-entropy, for reporting.
    """
    disp, raw = _epoch_pass(model, base, chunk_indices(order, cfg.batch_size), dataset, {task: w_norm}, cfg)
    model.restore(base)
    return disp, raw[task]


# ---------------------------------------------------------------------------
# alpha tuning


def dev_loss_grad(model, dev_set, task, batch_size):
    """Callable theta -> (dev loss, dev gradient) for one task's mean loss.

    The gradient of the full-set mean is accumulated exactly as the
    batch-size-weighted average of batch gradients. Each batch is one
    ``model.loss_grad`` call at weight 1.0, which is the plain cross-entropy.
    """
    n = len(dev_set)
    labels = dev_set.labels[task]
    chunks = chunk_indices(np.arange(n), batch_size)

    def loss_grad(theta):
        model.restore(theta)
        total_loss = 0.0
        total_grad = np.zeros_like(theta)
        for idx in chunks:
            loss, _, grad = model.loss_grad(dev_set.gather(idx), {task: labels[idx]}, {task: 1.0})
            frac = len(idx) / n
            total_loss += loss * frac
            total_grad += grad * frac
        return total_loss, total_grad

    return loss_grad


def alpha_gradient(loss_grad, base, deltas, alphas):
    """g_i = <delta_i, grad L(base + sum_j alpha_j delta_j)>.

    Raises NanLossError when the dev loss or any g_i is not finite, so that
    a NaN never reaches the alphas or the written-back base.
    """
    theta = combine(base, deltas, alphas)
    loss, grad = loss_grad(theta)
    g = np.array([float(np.dot(np.asarray(d, np.float64), np.asarray(grad, np.float64))) for d in deltas])
    if not (np.isfinite(loss) and np.all(np.isfinite(g))):
        raise NanLossError(f"non-finite dev loss {loss} or alpha gradient {g}")
    return g


def tune_alphas(loss_grad, base, deltas, steps, learning_rate, momentum):
    """Mixing coefficients after ``steps`` meta-SGD steps from all-ones."""
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
    The extra fields may carry ``dev_features``, the dev set's
    ``eval_features`` at the next base, which then is not encoded again.
    After each step every task is evaluated at the new base. Best snapshots
    track ``target``, or every task when ``target`` is None; only a run
    with a target records its dev loss. A ``target`` that is not one of
    the model's tasks is a ConfigError. A dev loss that is not finite, at
    epoch 0 or after any step, raises NanLossError.
    """
    tasks = model.task_ids
    if target is not None and target not in tasks:
        raise ConfigError(f"target {target!r} not in tasks {tasks}")
    tracked = tasks if target is None else [target]

    def score(scored, features=None):
        """{task: (accuracy, loss)} at the model's parameters, from one dev encoder pass."""
        if features is None:
            features = model.eval_features(dev_set, cfg.eval_batch_size)
        scores = {task: evaluate(model, dev_set, task, cfg.eval_batch_size, features=features) for task in scored}
        for task, (_, loss) in scores.items():
            if not np.isfinite(loss):
                raise NanLossError(f"non-finite dev loss {loss} of task {task}")
        return scores

    base = model.snapshot()
    best = {}
    for task, (acc, _) in score(tracked).items():
        _update_best(best, task, 0, acc, base)
    rows = []
    for epoch in range(1, cfg.effective_epochs + 1):
        base, train_losses, extra = step(epoch, base, best)
        model.restore(base)
        scores = score(tasks, extra.pop("dev_features", None))
        accs = {task: acc for task, (acc, _) in scores.items()}
        for task in tracked:
            _update_best(best, task, epoch, accs[task], base)
        target_loss = None if target is None else scores[target][1]
        rows.append(EpochRow(epoch, train_losses, accs, target_dev_loss=target_loss, **extra))
    return TrainResult(tasks, rows, best)


def singletask_train(train_set, dev_set, cfg, seed):
    """Plain mini-batch SGD on the target task, one ``collect_delta`` pass per epoch; one head."""
    task = cfg.target
    model = build_model([task], seed, dtype=cfg.dtype)

    def step(epoch, base, best):
        order = sample_fraction(train_set, cfg.rho, seed, epoch, key=task)
        disp, loss = collect_delta(model, base, task, 1.0, order, train_set, cfg)
        return base + disp, {task: loss}, {}

    return _run(model, dev_set, task, cfg, step)


def multitask_train(train_set, dev_set, cfg, seed):
    """Joint training: per batch, the mean of all task losses on shared input.

    Keeps one best snapshot per task.
    """
    tasks = sorted(train_set.labels)
    if len(tasks) < 2:
        raise ConfigError("multitask training requires at least two tasks")
    model = build_model(tasks, seed, dtype=cfg.dtype)
    uniform = {task: 1.0 / len(tasks) for task in tasks}

    def step(epoch, base, best):
        batch_list = batches(train_set, cfg.batch_size, seed, epoch)
        disp, raw = _epoch_pass(model, base, batch_list, train_set, uniform, cfg)
        return base + disp, raw, {}

    return _run(model, dev_set, None, cfg, step)


def avil_train(train_set, dev_set, cfg, seed):
    """Delta-collection + alpha-tuning training loop optimizing the target task."""
    tasks, target = sorted(train_set.labels), cfg.target
    model = build_model(tasks, seed, dtype=cfg.dtype)
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


def diw_train(train_set, dev_set, cfg, seed):
    """Discriminative importance weighting with a reset-and-retrain inner loop.

    Per epoch: each task contributes an unweighted single-task epoch from
    the shared base, scored by target dev accuracy (a_i). The inner loop
    then trains a jointly weighted epoch; if it improves on the best target
    accuracy so far it is accepted, otherwise every weight is nudged by
    eta * (a_i - a_joint) and the loop retries from the shared base, giving
    up after ``diw_patience`` attempts. The step keeps the most accurate
    attempt (on a tie, the earlier one) and hands back its dev features.
    """
    tasks, target = sorted(train_set.labels), cfg.target
    model = build_model(tasks, seed, dtype=cfg.dtype)
    weights = np.ones(len(tasks), dtype=np.float64)

    def step(epoch, base, best):
        nonlocal weights
        batch_list = batches(train_set, cfg.batch_size, seed, epoch)
        single_acc = np.zeros(len(tasks))
        for i, task in enumerate(tasks):
            _epoch_pass(model, base, batch_list, train_set, {task: 1.0}, cfg)
            single_acc[i], _ = evaluate(model, dev_set, target, cfg.eval_batch_size)
        kept = None  # (accuracy, next base, train losses, dev features)
        for attempt in range(1, cfg.diw_patience + 1):
            w_norm = weights / weights.sum()
            disp, raw = _epoch_pass(model, base, batch_list, train_set, dict(zip(tasks, w_norm)), cfg)
            feats = model.eval_features(dev_set, cfg.eval_batch_size)
            a_joint, _ = evaluate(model, dev_set, target, cfg.eval_batch_size, features=feats)
            if kept is None or a_joint > kept[0]:
                kept = (a_joint, base + disp, raw, feats)
            if a_joint > best[target].dev_accuracy:
                break
            weights = optim.clamp_weights(weights + cfg.diw_eta * (single_acc - a_joint), cfg.clamp_floor)
        _, next_base, raw, feats = kept
        extra = dict(weights={t: float(w) for t, w in zip(tasks, weights)}, diw_attempts=attempt, dev_features=feats)
        return next_base, raw, extra

    return _run(model, dev_set, target, cfg, step)
