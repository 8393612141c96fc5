"""Shared-encoder, multi-head convolutional classifier over 28x28 images.

Encoder: conv 10@5x5 -> maxpool 2x2 -> relu -> conv 20@5x5 -> maxpool 2x2
-> relu -> flatten(320) -> fc 320x50 -> relu. One linear 50x10 head per
task. 28x28 input gives 24 -> 12 -> 8 -> 4 spatial sizes, hence the 320
(=20*4*4) flatten width. Each conv pools as it goes (``conv2d`` is a conv
and its pool in one op), so no forward pass holds a whole conv output and a
tape keeps none: the conv output's node on the tape has no tensor.

Parameters are exposed as a flat "parameter vector" in a canonical fixed
order: encoder parameters first (conv1 w/b, conv2 w/b, fc w/b), then each
head's w/b with heads sorted by task id. Deltas, snapshots and mixed
updates therefore always align. Each parameter's data is a view of one
vector in that order, so a snapshot is one copy and a restore one
overwrite; round-trips are bit-exact.

``loss_grad`` is the one batch-gradient path: under its own tape it runs
one encoder pass, sums each listed head's cross-entropy scaled by its
weight, and returns the loss, the raw per-task losses and the flat
gradient in canonical order. No gradient is stored on the parameters, so
a restore is only an overwrite.

Initialization is uniform in +/- 1/sqrt(fan_in) per layer, drawn from a
seeded generator in canonical parameter order; the scheme is a local
choice, visible here and in the run configuration echo.

Evaluation encodes a whole dataset without a tape (``eval_features``).
The model keeps no evaluation state: a caller that scores several heads
at one set of parameters encodes once and hands the features to each
head's score (``weighting.evaluate``).
"""

from __future__ import annotations

import struct

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .files import read_array, read_exact, replace_atomically

ENCODER_SHAPES = (
    ("conv1_w", (10, 1, 5, 5)),
    ("conv1_b", (10,)),
    ("conv2_w", (20, 10, 5, 5)),
    ("conv2_b", (20,)),
    ("fc_w", (320, 50)),
    ("fc_b", (50,)),
)
HEAD_SHAPES = (("w", (50, 10)), ("b", (10,)))

HEAD_PARAMS = sum(int(np.prod(s)) for _, s in HEAD_SHAPES)  # 510
ENCODER_PARAMS = sum(int(np.prod(s)) for _, s in ENCODER_SHAPES)  # 21330

CHECKPOINT_MAGIC = b"AVIL"
CHECKPOINT_VERSION = 1


def _fan_in(shape):
    if len(shape) == 4:  # conv kernels: cin * k * k
        return shape[1] * shape[2] * shape[3]
    if len(shape) == 2:  # linear: input features
        return shape[0]
    return None  # biases use the owning layer's fan-in


class MultiHeadModel:
    """Convolutional encoder shared across tasks, one linear head per task.

    Heads share no parameters; the gradient of one task's loss with respect
    to another task's head is exactly zero.
    """

    def __init__(self, task_ids, seed, dtype=np.float64):
        ids = list(task_ids)
        if not ids:
            raise ConfigError("at least one task id is required")
        if len(set(ids)) != len(ids):
            raise ConfigError(f"duplicate task ids: {ids}")
        self.task_ids = sorted(ids)
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(int(seed))
        self._flat = np.empty(ENCODER_PARAMS + HEAD_PARAMS * len(self.task_ids), dtype=self.dtype)
        self._params = []
        self._encoder = self._init_params(rng, ENCODER_SHAPES)
        self._heads = {tid: self._init_params(rng, HEAD_SHAPES) for tid in self.task_ids}
        filled = sum(p.data.size for p in self._params)
        if filled != self._flat.size:
            raise RuntimeError(f"model has {filled} parameters, expected {self._flat.size}")

    def _init_params(self, rng, shapes):
        """One layer group's tensors, each a view of the next span of ``_flat``."""
        group = {}
        fan = None
        start = sum(p.data.size for p in self._params)
        for name, shape in shapes:
            fan = _fan_in(shape) or fan
            size = int(np.prod(shape))
            data = self._flat[start : start + size].reshape(shape)
            start += size
            bound = 1.0 / np.sqrt(fan)
            data[...] = rng.uniform(-bound, bound, size=shape)
            group[name] = ad.Tensor(data, tracked=True)
            self._params.append(group[name])
        return group

    def parameters(self):
        """Parameter tensors in canonical order."""
        return self._params

    @property
    def param_count(self):
        return self._flat.size

    def head(self, task):
        return self._heads[task]

    def features(self, images):
        """Shared 50-wide encoding of a [batch, 1, 28, 28] input.

        Under an active tape the result is differentiable with respect to
        the encoder parameters.
        """
        x = ad.relu(ad.conv2d(ad.Tensor(images), self._encoder["conv1_w"], self._encoder["conv1_b"]))
        x = ad.relu(ad.conv2d(x, self._encoder["conv2_w"], self._encoder["conv2_b"]))
        x = ad.reshape(x, (x.shape[0], ENCODER_SHAPES[4][1][0]))
        return ad.relu(ad.linear(x, self._encoder["fc_w"], self._encoder["fc_b"]))

    def eval_features(self, dataset, batch_size):
        """Tape-free ``features`` of a ``data.MultiMnistSet`` in consecutive chunks of ``batch_size``.

        One list entry per chunk, each chunk's images taken with
        ``dataset.gather``. Every call encodes the whole set.
        """
        chunks = range(0, len(dataset), batch_size)
        return [self.features(dataset.gather(slice(lo, lo + batch_size))) for lo in chunks]

    def head_logits(self, feats, task):
        head = self.head(task)
        return ad.linear(feats, head["w"], head["b"])

    def loss_grad(self, images, labels, weights):
        """(loss, {task: raw loss}, flat gradient) of one batch.

        The loss is the sum over ``weights`` (task id -> scale), in its
        order, of each head's mean cross-entropy against ``labels[task]``
        times its scale; the raw losses are unscaled. The encoder runs once
        and every head reads its features, so the encoder gradient sums
        every task's share. The gradient is a new vector in canonical
        order, zero in the heads outside ``weights``. Scaling by 1.0 is
        exact forward and backward: one task at weight 1.0 gives the plain
        cross-entropy and its gradient.
        """
        with ad.Tape():
            feats = self.features(images)
            total, raw = None, {}
            for task, w in weights.items():
                ce = ad.cross_entropy_mean(self.head_logits(feats, task), labels[task])
                raw[task] = float(ce.data)
                term = ad.scale(ce, w)
                total = term if total is None else ad.add(total, term)
            grads = ad.backward(total)
        flat = np.zeros_like(self._flat)
        start = 0
        for p in self._params:
            if p in grads:
                flat[start : start + p.data.size] = grads[p].reshape(-1)
            start += p.data.size
        return float(total.data), raw, flat

    def snapshot(self):
        """Copy of all parameters as one flat vector in canonical order."""
        return self._flat.copy()

    def restore(self, values):
        """Overwrite all parameters from a flat vector."""
        values = np.asarray(values)
        if values.shape != self._flat.shape:
            raise ConfigError(
                f"parameter vector of length {values.size} does not match model ({self.param_count})"
            )
        np.copyto(self._flat, values, casting="unsafe")


def build_model(task_ids, seed, dtype=np.float64):
    """Deterministically initialized model; same seed, same parameters."""
    return MultiHeadModel(task_ids, seed, dtype=dtype)


def combine(base, deltas, alphas):
    """base + sum_i alphas[i] * deltas[i], elementwise on flat vectors."""
    out = base.copy()
    for delta, alpha in zip(deltas, alphas, strict=True):
        out += float(alpha) * delta
    return out


def save_checkpoint(path, values, task_ids):
    """Binary checkpoint: magic, version u32, count u64, task table, f64 LE values."""
    values = np.asarray(values, dtype="<f8")
    with replace_atomically(path, binary=True) as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", CHECKPOINT_VERSION))
        fh.write(struct.pack("<Q", values.size))
        fh.write(struct.pack("<I", len(task_ids)))
        for tid in task_ids:
            raw = str(tid).encode("utf-8")
            fh.write(struct.pack("<I", len(raw)))
            fh.write(raw)
        fh.write(values.tobytes())


def load_checkpoint(path):
    """Read a checkpoint; returns (values float64, task_ids).

    A bad magic or version, or a file shorter than its header implies, is a
    ConfigError.
    """
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, path)
        if magic != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", read_exact(fh, 4, path))
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"{path}: unsupported checkpoint version {version}")
        (count,) = struct.unpack("<Q", read_exact(fh, 8, path))
        (ntasks,) = struct.unpack("<I", read_exact(fh, 4, path))
        task_ids = []
        for _ in range(ntasks):
            (ln,) = struct.unpack("<I", read_exact(fh, 4, path))
            task_ids.append(read_exact(fh, ln, path).decode("utf-8"))
        values = read_array(fh, (count,), "<f8", path)
    return values, task_ids
