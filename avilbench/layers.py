"""Per-layer metrics: span-derived times and counts, plus a per-op probe.

``.s`` metrics are self times summed over one traced setup or one traced
experiment (the median over the traced repetitions of a run); ``.calls``
and ``.examples`` are counts that repeat exactly between repetitions.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

from avil import autodiff as ad

import spans as spanlib

SELF_TIMES = (
    "data.synthetic_mnist",
    "data.make_multimnist",
    "harness.seed_datasets",
    "weighting.tune_alphas",
    "weighting.collect_delta",
    "weighting.evaluate",
    "weighting.combine",
    "model.restore",
    "model.gradient_vector",
    "optim.sgd_step",
    "model.features",
    "autodiff.conv2d",
    "autodiff.maxpool2",
    "autodiff.linear",
    "autodiff.relu",
    "autodiff.cross_entropy_mean",
    "autodiff.backward",
)
CALLS = (
    "weighting.alpha_gradient",
    "weighting.collect_delta",
    "weighting.evaluate",
    "weighting.combine",
    "model.restore",
    "model.gradient_vector",
    "optim.sgd_step",
    "autodiff.backward",
)
EXAMPLES = ("weighting.evaluate", "model.features")
PROBE_OPS = ("conv1", "conv2", "pool1", "pool2", "fc", "head", "ce")
PROBE_BATCH = 256
PROBE_REPS = 7

# Metrics whose values must repeat exactly between traced repetitions.
EXACT = tuple(f"{n}.calls" for n in CALLS) + tuple(f"{n}.examples" for n in EXAMPLES) + (
    "weighting.diw.attempts",
)

PER_LAYER = (
    [(f"{n}.s", "s") for n in SELF_TIMES]
    + [("weighting.train.self_s", "s")]
    + [(f"{n}.calls", "count") for n in CALLS]
    + [(f"{n}.examples", "count") for n in EXAMPLES]
    + [("weighting.diw.attempts", "count"), ("weighting.diw.useful_frac", "ratio")]
    + [(f"autodiff.{op}.{kind}", "ms") for op in PROBE_OPS for kind in ("fwd_ms", "vjp_ms")]
    + [("gc.collections", "count"), ("gc.collected", "count")]
    + [("trace.overhead_frac", "ratio"), ("trace.unattributed_frac", "ratio")]
)


def rep_values(tracer, tasks, epochs):
    """Span-derived metrics of one traced section."""
    self_s, calls, examples = spanlib.summarize(tracer.spans)
    values = {f"{n}.s": self_s.get(n, 0.0) for n in SELF_TIMES}
    values["weighting.train.self_s"] = sum(
        v for n, v in self_s.items() if n.startswith("weighting.") and n.endswith("_train")
    )
    values.update({f"{n}.calls": calls.get(n, 0) for n in CALLS})
    values.update({f"{n}.examples": examples.get(n, 0) for n in EXAMPLES})
    attempts = spanlib.diw_attempts(tracer.spans, tasks, epochs)
    values["weighting.diw.attempts"] = attempts
    values["weighting.diw.useful_frac"] = epochs / attempts if attempts else 0.0
    values["gc.collections"] = tracer.gc_collections
    values["gc.collected"] = tracer.gc_collected
    return values


def unattributed_seconds(tracer):
    """Installed time not under any span nested below an entry-point span.

    The entry points (``harness.load_pools``, ``harness.run_experiment``)
    cover the whole traced section, so what remains is their own code plus
    the tracer's bookkeeping.
    """
    spans = tracer.spans
    nested = sum(end - start for _, start, end, parent, _ in spans if parent >= 0 and spans[parent][3] < 0)
    return tracer.installed_s - nested


def median_values(dicts):
    """Per-key median; counts keep an observed whole value."""
    return {
        key: (statistics.median_low if isinstance(dicts[0][key], int) else statistics.median)(
            [d[key] for d in dicts]
        )
        for key in dicts[0]
    }


def repeat_errors(dicts):
    """Exact-count metrics that differ between repetitions."""
    return [
        f"{key} differs between traced repetitions: {[d[key] for d in dicts]}"
        for key in EXACT
        if len({d[key] for d in dicts}) > 1
    ]


def layer_metrics(setup_tracers, run_tracers, tasks, epochs, untraced_walls, traced_walls, probe):
    """Every per-layer metric of a traced run, by name."""
    setup = median_values([rep_values(t, tasks, epochs) for t in setup_tracers])
    runs = median_values([rep_values(t, tasks, epochs) for t in run_tracers])
    values = {name: runs[name] + (setup[name] if name.startswith("data.") else 0) for name in runs}
    values.update(probe)
    values["trace.overhead_frac"] = statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0
    tracers = list(setup_tracers) + list(run_tracers)
    values["trace.unattributed_frac"] = (
        sum(unattributed_seconds(t) for t in tracers) / sum(t.installed_s for t in tracers)
    )
    return {name: values[name] for name, _ in PER_LAYER}


def op_probe(dtype, seed, batch=PROBE_BATCH, reps=PROBE_REPS):
    """Median forward and VJP milliseconds of each model op at one batch size.

    Inputs have the shapes the model feeds each op and are tracked where
    the model's are (conv1's images are not). The VJP time is that of
    ``autodiff.backward`` from the op's output, reduced by ``tensor_sum``
    when it is not already a scalar, so it includes that sum's own VJP.
    """
    rng = np.random.default_rng(seed)
    dtype = np.dtype(dtype)

    def tensor(shape, tracked=True, low=-1.0, high=1.0):
        return ad.Tensor(rng.uniform(low, high, size=shape).astype(dtype), tracked=tracked)

    images = tensor((batch, 1, 28, 28), tracked=False, low=0.0)
    labels = rng.integers(0, 10, size=batch)
    args = {
        "conv1": (ad.conv2d, images, tensor((10, 1, 5, 5)), tensor((10,))),
        "pool1": (ad.maxpool2, tensor((batch, 10, 24, 24))),
        "conv2": (ad.conv2d, tensor((batch, 10, 12, 12)), tensor((20, 10, 5, 5)), tensor((20,))),
        "pool2": (ad.maxpool2, tensor((batch, 20, 8, 8))),
        "fc": (ad.linear, tensor((batch, 320)), tensor((320, 50)), tensor((50,))),
        "head": (ad.linear, tensor((batch, 50)), tensor((50, 10)), tensor((10,))),
        "ce": (ad.cross_entropy_mean, tensor((batch, 10)), labels),
    }
    out = {}
    for name in PROBE_OPS:
        op, *inputs = args[name]
        fwd, vjp = [], []
        for rep in range(reps + 1):  # the first repetition warms up
            with ad.Tape():
                start = time.perf_counter()
                result = op(*inputs)
                mid = time.perf_counter()
                loss = result if result.data.size == 1 else ad.tensor_sum(result)
            before = time.perf_counter()
            ad.backward(loss)
            end = time.perf_counter()
            for t in inputs:
                if isinstance(t, ad.Tensor):
                    t.grad = None
            if rep:
                fwd.append(mid - start)
                vjp.append(end - before)
        out[f"autodiff.{name}.fwd_ms"] = 1e3 * statistics.median(fwd)
        out[f"autodiff.{name}.vjp_ms"] = 1e3 * statistics.median(vjp)
    return out
