"""Span tracing of the avil layers from outside the program.

A :class:`Tracer` replaces public functions of the avil modules with
wrappers that record one span per call: name, start, end, the index of the
enclosing span, and an example count where the call has one. Spans stay in
memory; :func:`summarize` turns them into per-name self time, call counts
and example counts. The wrappers work because every call site in avil looks
its callee up at call time: ``weighting`` calls ``evaluate``,
``collect_delta``, ``tune_alphas``, ``alpha_gradient`` and ``combine`` as
module globals and ``ad.*`` / ``optim.*`` through the module, ``model``
calls ``ad.*`` ops, and ``harness`` calls ``weighting.*_train`` and its own
globals. A span is named after the namespace its caller looks it up in, so
``combine`` imported into ``weighting`` is traced as ``weighting.combine``.

Tracing only observes: a traced run writes byte-identical result files.
"""

from __future__ import annotations

import functools
import gc
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from avil import autodiff, data, harness, model, optim, weighting

_Model = model.MultiHeadModel

# (owner, attribute, span name, example count from the positional arguments)
TARGETS = [
    (data, "synthetic_mnist", "data.synthetic_mnist", lambda a: int(a[0])),
    (data, "make_multimnist", "data.make_multimnist", lambda a: len(a[0])),
    (data, "split_dev", "data.split_dev", None),
    (data, "sample_fraction", "data.sample_fraction", None),
    (harness, "load_pools", "harness.load_pools", None),
    (harness, "run_experiment", "harness.run_experiment", None),
    (harness, "seed_datasets", "harness.seed_datasets", None),
    (harness, "evaluate_accuracy", "harness.evaluate_accuracy", None),
    (harness, "build_model", "harness.build_model", None),
    (harness, "save_checkpoint", "harness.save_checkpoint", None),
    (harness, "write_seed_csv", "harness.write_seed_csv", None),
    (harness, "write_summary_csv", "harness.write_summary_csv", None),
    (harness, "write_aggregate_csv", "harness.write_aggregate_csv", None),
    (weighting, "singletask_train", "weighting.singletask_train", None),
    (weighting, "multitask_train", "weighting.multitask_train", None),
    (weighting, "diw_train", "weighting.diw_train", None),
    (weighting, "avil_train", "weighting.avil_train", None),
    (weighting, "collect_delta", "weighting.collect_delta", None),
    (weighting, "dev_loss_grad", "weighting.dev_loss_grad", None),
    (weighting, "tune_alphas", "weighting.tune_alphas", None),
    (weighting, "alpha_gradient", "weighting.alpha_gradient", None),
    (weighting, "evaluate", "weighting.evaluate", lambda a: len(a[1])),
    (weighting, "combine", "weighting.combine", None),
    (weighting, "build_model", "weighting.build_model", None),
    (weighting, "sample_fraction", "weighting.sample_fraction", None),
    (weighting, "batches", "weighting.batches", None),
    (weighting, "chunk_indices", "weighting.chunk_indices", None),
    (_Model, "features", "model.features", lambda a: a[1].shape[0]),
    (_Model, "head_logits", "model.head_logits", None),
    (_Model, "restore", "model.restore", None),
    (_Model, "snapshot", "model.snapshot", None),
    (_Model, "gradient_vector", "model.gradient_vector", None),
    (_Model, "zero_grad", "model.zero_grad", None),
    (optim, "sgd_step", "optim.sgd_step", None),
    (optim, "clamp_weights", "optim.clamp_weights", None),
    (autodiff, "conv2d", "autodiff.conv2d", None),
    (autodiff, "maxpool2", "autodiff.maxpool2", None),
    (autodiff, "relu", "autodiff.relu", None),
    (autodiff, "linear", "autodiff.linear", None),
    (autodiff, "cross_entropy_mean", "autodiff.cross_entropy_mean", None),
    (autodiff, "reshape", "autodiff.reshape", None),
    (autodiff, "add", "autodiff.add", None),
    (autodiff, "scale", "autodiff.scale", None),
    (autodiff, "tensor_sum", "autodiff.tensor_sum", None),
    (autodiff, "backward", "autodiff.backward", None),
]


class Tracer:
    """In-memory span recorder for one traced section of a run.

    ``spans`` holds ``[name, start, end, parent, examples]`` lists in call
    order; ``parent`` is the index of the enclosing span or -1. While
    installed, the cyclic garbage collector's runs and the objects they
    freed are counted through ``gc.callbacks``.
    """

    def __init__(self):
        self.spans = []
        self._stack = []
        self.installed_s = 0.0
        self.gc_collections = 0
        self.gc_collected = 0

    def _wrap(self, name, fn, size):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, 0 if size is None else size(args)]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def _on_gc(self, phase, info):
        if phase == "stop":
            self.gc_collections += 1
            self.gc_collected += info["collected"]

    @contextmanager
    def installed(self):
        """Wrap every target that exists; restore the originals on exit.

        A target that a later avil no longer has is skipped, and the
        metrics built from it read zero.
        """
        originals = []
        for owner, attr, name, size in TARGETS:
            fn = owner.__dict__.get(attr)
            if fn is None:
                continue
            originals.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, size))
        gc.callbacks.append(self._on_gc)
        start = time.perf_counter()
        try:
            yield self
        finally:
            self.installed_s += time.perf_counter() - start
            gc.callbacks.remove(self._on_gc)
            for owner, attr, fn in reversed(originals):
                setattr(owner, attr, fn)


def nesting_errors(spans):
    """Spans that do not lie inside their parent's interval."""
    errors = []
    for i, (name, start, end, parent, _) in enumerate(spans):
        if end < start:
            errors.append(f"span {i} {name} ends before it starts")
        if parent >= 0:
            _, p_start, p_end, _, _ = spans[parent]
            if parent >= i or start < p_start or end > p_end:
                errors.append(f"span {i} {name} is not inside its parent {parent}")
    return errors


def self_times(spans):
    """Per-span self time: duration minus the time covered by its children."""
    child = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    return [end - start - c for (_, start, end, _, _), c in zip(spans, child)]


def summarize(spans):
    """(self seconds, calls, examples) per span name."""
    self_s = defaultdict(float)
    calls = Counter()
    examples = Counter()
    for span, own in zip(spans, self_times(spans)):
        self_s[span[0]] += own
        calls[span[0]] += 1
        examples[span[0]] += span[4]
    return dict(self_s), dict(calls), dict(examples)


def diw_attempts(spans, tasks, epochs):
    """Joint-pass attempts of every DIW run in ``spans``, from evaluate calls.

    ``diw_train`` evaluates the target once before training and, per epoch,
    once after each task's single pass, once per joint attempt and once per
    task at the epoch's end; the attempts are what remains.
    """
    total = 0
    for i, span in enumerate(spans):
        if span[0] != "weighting.diw_train":
            continue
        evals = sum(1 for s in spans if s[0] == "weighting.evaluate" and s[3] == i)
        total += evals - 1 - 2 * tasks * epochs
    return total
