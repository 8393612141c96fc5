"""Shared-encoder, multi-head convolutional classifier over 28x28 images.

Encoder: conv 10@5x5 -> maxpool 2x2 -> relu -> conv 20@5x5 -> maxpool 2x2
-> relu -> flatten(320) -> fc 320x50 -> relu. One linear 50x10 head per
task. 28x28 input gives 24 -> 12 -> 8 -> 4 spatial sizes, hence the 320
(=20*4*4) flatten width.

Parameters are exposed as a flat "parameter vector" in a canonical fixed
order: encoder parameters first (conv1 w/b, conv2 w/b, fc w/b), then each
head's w/b with heads sorted by task id. Deltas, snapshots and mixed
updates therefore always align. Snapshot/restore round-trips are
bit-exact.

Initialization is uniform in +/- 1/sqrt(fan_in) per layer, drawn from a
seeded generator in canonical parameter order; the scheme is a local
choice, visible here and in the run configuration echo.
"""

from __future__ import annotations

import struct

import numpy as np

from . import autodiff as ad
from .errors import ConfigError
from .files import replace_atomically

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


class UnknownTaskError(KeyError):
    """Task id not registered with the model."""


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
        self.seed = int(seed)
        self.dtype = np.dtype(dtype)
        rng = np.random.default_rng(self.seed)
        self._encoder = {}
        fan = None
        for name, shape in ENCODER_SHAPES:
            fan = _fan_in(shape) or fan
            self._encoder[name] = self._init_param(rng, shape, fan)
        self._heads = {}
        for tid in self.task_ids:
            head = {}
            fan = None
            for name, shape in HEAD_SHAPES:
                fan = _fan_in(shape) or fan
                head[name] = self._init_param(rng, shape, fan)
            self._heads[tid] = head
        expected = ENCODER_PARAMS + HEAD_PARAMS * len(self.task_ids)
        if self.param_count != expected:
            raise RuntimeError(f"model has {self.param_count} parameters, expected {expected}")

    def _init_param(self, rng, shape, fan_in):
        bound = 1.0 / np.sqrt(fan_in)
        data = rng.uniform(-bound, bound, size=shape).astype(self.dtype)
        return ad.Tensor(data, tracked=True)

    def parameters(self):
        """Parameter tensors in canonical order."""
        out = [self._encoder[name] for name, _ in ENCODER_SHAPES]
        for tid in self.task_ids:
            out.extend(self._heads[tid][name] for name, _ in HEAD_SHAPES)
        return out

    @property
    def param_count(self):
        return sum(p.data.size for p in self.parameters())

    def head(self, task):
        try:
            return self._heads[task]
        except KeyError:
            raise UnknownTaskError(f"unknown task {task!r}; registered: {self.task_ids}") from None

    def features(self, images):
        """Shared 50-wide encoding of a [batch, 1, 28, 28] input.

        Under an active tape the result is differentiable with respect to
        the encoder parameters. Joint losses reuse one feature pass for all
        heads; the encoder gradient then accumulates every head's share.
        """
        x = images if isinstance(images, ad.Tensor) else ad.Tensor(np.asarray(images, dtype=self.dtype))
        x = ad.relu(ad.maxpool2(ad.conv2d(x, self._encoder["conv1_w"], self._encoder["conv1_b"])))
        x = ad.relu(ad.maxpool2(ad.conv2d(x, self._encoder["conv2_w"], self._encoder["conv2_b"])))
        x = ad.reshape(x, (x.shape[0], ENCODER_SHAPES[4][1][0]))
        return ad.relu(ad.linear(x, self._encoder["fc_w"], self._encoder["fc_b"]))

    def head_logits(self, feats, task):
        head = self.head(task)
        return ad.linear(feats, head["w"], head["b"])

    def forward(self, images, task):
        """Logits [batch, 10] for one task's head."""
        return self.head_logits(self.features(images), task)

    def snapshot(self):
        """Copy of all parameters as one flat vector in canonical order."""
        return np.concatenate([p.data.reshape(-1) for p in self.parameters()]).astype(self.dtype, copy=False)

    def restore(self, values):
        """Overwrite all parameters from a flat vector; clears stale grads."""
        values = np.asarray(values)
        if values.shape != (self.param_count,):
            raise ConfigError(
                f"parameter vector of length {values.size} does not match model ({self.param_count})"
            )
        pos = 0
        for p in self.parameters():
            n = p.data.size
            np.copyto(p.data, values[pos : pos + n].reshape(p.data.shape), casting="unsafe")
            p.grad = None
            pos += n

    def gradient_vector(self):
        """Flat gradient in canonical order; zeros where no grad flowed."""
        parts = []
        for p in self.parameters():
            if p.grad is None:
                parts.append(np.zeros(p.data.size, dtype=self.dtype))
            else:
                parts.append(np.asarray(p.grad, dtype=self.dtype).reshape(-1))
        return np.concatenate(parts)

    def zero_grad(self):
        for p in self.parameters():
            p.grad = None


def build_model(task_ids, seed, dtype=np.float64):
    """Deterministically initialized model; same seed, same parameters."""
    return MultiHeadModel(task_ids, seed, dtype=dtype)


def combine(base, deltas, alphas):
    """base + sum_i alphas[i] * deltas[i], elementwise on flat vectors."""
    base = np.asarray(base)
    if len(deltas) != len(alphas):
        raise ConfigError(f"{len(deltas)} deltas vs {len(alphas)} alphas")
    out = base.copy()
    for delta, alpha in zip(deltas, alphas):
        delta = np.asarray(delta)
        if delta.shape != base.shape:
            raise ConfigError(f"delta length {delta.size} does not match base {base.size}")
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


def _read_exact(fh, count, path):
    offset = fh.tell()
    raw = fh.read(count)
    if len(raw) != count:
        raise ConfigError(f"{path}: truncated checkpoint at offset {offset} ({len(raw)} of {count} bytes)")
    return raw


def load_checkpoint(path):
    """Read a checkpoint; returns (values float64, task_ids)."""
    with open(path, "rb") as fh:
        magic = _read_exact(fh, 4, path)
        if magic != CHECKPOINT_MAGIC:
            raise ConfigError(f"{path}: bad checkpoint magic {magic!r}")
        (version,) = struct.unpack("<I", _read_exact(fh, 4, path))
        if version != CHECKPOINT_VERSION:
            raise ConfigError(f"{path}: unsupported checkpoint version {version}")
        (count,) = struct.unpack("<Q", _read_exact(fh, 8, path))
        (ntasks,) = struct.unpack("<I", _read_exact(fh, 4, path))
        task_ids = []
        for _ in range(ntasks):
            (ln,) = struct.unpack("<I", _read_exact(fh, 4, path))
            task_ids.append(_read_exact(fh, ln, path).decode("utf-8"))
        raw = _read_exact(fh, count * 8, path)
        values = np.frombuffer(raw, dtype="<f8").copy()
    return values, task_ids
