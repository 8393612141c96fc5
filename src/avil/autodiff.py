"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tape` records every differentiable operation executed while it is
active; :func:`backward` replays the records in reverse and accumulates
gradients onto the leaves, the tracked tensors that no op on the tape
produced (model parameters, tracked inputs). The op set is deliberately
small: exactly what a LeNet-style convolutional classifier with per-task
linear heads needs, plus a few helpers (reshape, add, scale, tensor_sum)
used to compose losses. No broadcasting beyond bias addition and scalar
scaling.

A record names an operand produced on the same tape by its node index and
holds only leaves as tensors; backward rules capture arrays, shapes and
dtypes, never tensors. An op output points to its tape but the tape never
points back, so a graph is freed by reference counting as soon as its last
output is dropped, without waiting for the cyclic garbage collector.

Convolution is valid (no padding), stride 1, with cross-correlation
semantics (no kernel flip). Its output is a (batch, channel, h, w) view of
channel-major memory, and its input gradient a view of batch-innermost
memory; every op accepts such views. Max pooling is non-overlapping 2x2,
ties broken by the first element in row-major window order so that
training runs are bit-reproducible.
"""

from __future__ import annotations

import threading

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tensor:
    """N-dimensional real array plus an optional gradient of the same shape.

    ``tracked`` marks participation in differentiation: ops record a backward
    rule only for tracked operands. An op output recorded on a tape carries
    that ``tape`` and its ``node`` index there; only leaves (tracked tensors
    that no op on the loss's tape produced) receive a ``grad`` from
    :func:`backward`. Data is immutable by convention after an op creates
    it; only ``grad`` accumulates.
    """

    __slots__ = ("data", "grad", "tracked", "tape", "node")

    def __init__(self, data, tracked=False, dtype=None):
        self.data = np.asarray(data, dtype=dtype)
        self.grad = None
        self.tracked = bool(tracked)
        self.tape = None
        self.node = None

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def zero_grad(self):
        self.grad = None

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tracked={self.tracked})"

    def __add__(self, other):
        return add(self, other)

    def __mul__(self, c):
        return scale(self, c)

    __rmul__ = __mul__


_tls = threading.local()


def _tape_stack():
    stack = getattr(_tls, "stack", None)
    if stack is None:
        stack = []
        _tls.stack = stack
    return stack


def active_tape():
    """The innermost tape on this thread, or None."""
    stack = _tape_stack()
    return stack[-1] if stack else None


class Tape:
    """Ordered record of operations for one reverse-mode pass.

    Record ``i`` belongs to the op output with ``node == i`` and lists the
    backward rules of its tracked operands, each keyed by the operand's node
    index on this tape, or by the operand itself when it is a leaf. Tapes
    are confined to the thread that opened them; independent tapes on
    separate threads do not interact.
    """

    def __init__(self):
        self._records = []

    def __enter__(self):
        _tape_stack().append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = _tape_stack().pop()
        assert popped is self
        return False

    def record(self, rules):
        """Append one op's rules; returns the node index of its output."""
        self._records.append(rules)
        return len(self._records) - 1

    def __len__(self):
        return len(self._records)


def _make(data, rules):
    """Wrap an op result, recording the rules of tracked operands if a tape is active."""
    out = Tensor(data)
    tape = active_tape()
    if tape is not None and any(t.tracked for t, _ in rules):
        out.tracked = True
        out.tape = tape
        out.node = tape.record(
            tuple((t.node if t.tape is tape else t, fn) for t, fn in rules if t.tracked)
        )
    return out


def backward(loss):
    """Accumulate gradients of ``loss`` onto every leaf feeding it.

    Repeated calls without clearing grads accumulate additively, also after
    the tape's ``with`` block has exited. The replay walks the tape in
    reverse recording order from the loss's node, so a tensor consumed
    several times receives the sum of all branch contributions.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss.tape is None:
        raise ValueError("loss was not produced under an active tape")
    records = loss.tape._records
    adjoint = {loss.node: np.ones_like(loss.data)}
    leaves = {}
    for node in range(loss.node, -1, -1):
        g = adjoint.pop(node, None)
        if g is None:
            continue
        for operand, vjp in records[node]:
            contrib = vjp(g)
            if isinstance(operand, int):
                prev = adjoint.get(operand)
                adjoint[operand] = contrib if prev is None else prev + contrib
            else:
                prev = leaves.get(id(operand))
                leaves[id(operand)] = (operand, contrib if prev is None else prev[1] + contrib)
    for tensor, g in leaves.values():
        tensor.grad = g if tensor.grad is None else tensor.grad + g


# ---------------------------------------------------------------------------
# operations


def _im2col(x, k):
    """Patch matrix (cin*k*k, batch*out_h*out_w) for valid stride-1 windows.

    Rows follow the kernel's (cin, ki, kj) order and columns the output's
    (batch, row, col) order, so the copy runs along output rows.
    """
    win = sliding_window_view(x, (k, k), axis=(2, 3))  # B,C,Ho,Wo,k,k
    ho, wo = win.shape[2:4]
    col = np.ascontiguousarray(win.transpose(1, 4, 5, 0, 2, 3))
    return col.reshape(x.shape[1] * k * k, -1), ho, wo


def linear(x, weight, bias):
    """x[batch,in] @ weight[in,out] + bias[out], bias broadcast over batch."""
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(f"linear expects 2-d operands, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[0]:
        raise ShapeError(f"linear inner dimensions disagree: x {x.shape} vs weight {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear bias shape {bias.shape} does not match weight {weight.shape}")
    out = x.data @ weight.data + bias.data
    xd, wd = x.data, weight.data
    return _make(
        out,
        (
            (x, lambda g: g @ wd.T),
            (weight, lambda g: xd.T @ g),
            (bias, lambda g: g.sum(axis=0)),
        ),
    )


def conv2d(x, kernels, bias):
    """Valid stride-1 cross-correlation of x[b,cin,h,w] with kernels[cout,cin,k,k]."""
    if x.data.ndim != 4 or kernels.data.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d operands, got {x.shape} and {kernels.shape}")
    b, cin, h, w = x.shape
    cout, cin_k, k, k2 = kernels.shape
    if k != k2 or cin != cin_k:
        raise ShapeError(f"conv2d kernels {kernels.shape} do not match input {x.shape}")
    if h < k or w < k:
        raise ShapeError(f"conv2d kernel {kernels.shape} larger than input {x.shape}")
    if bias.shape != (cout,):
        raise ShapeError(f"conv2d bias shape {bias.shape} does not match kernels {kernels.shape}")
    col, ho, wo = _im2col(x.data, k)
    kmat = kernels.data.reshape(cout, -1)
    out = kmat @ col
    out += bias.data[:, None]
    out = out.reshape(cout, b, ho, wo).transpose(1, 0, 2, 3)
    dtype = x.dtype

    def d_kernels(g):
        gT = g.transpose(1, 0, 2, 3).reshape(cout, -1)
        return (gT @ col.T).reshape(cout, cin, k, k)

    def d_bias(g):
        # per-example sums, then over the batch in order: the summation
        # order of a contiguous (b, c, h, w) reduction, whatever g's layout
        return np.ascontiguousarray(g.sum(axis=(2, 3))).sum(axis=0)

    def d_x(g):
        # transposed convolution: scatter each output's patch gradient back
        # onto its window, k*k shifted adds along batch-innermost rows
        gT = g.transpose(1, 2, 3, 0).reshape(cout, -1)
        dcol = (kmat.T @ gT).reshape(cin, k, k, ho, wo, b)
        dx = np.zeros((cin, h, w, b), dtype=dtype)
        for i in range(k):
            for j in range(k):
                dx[:, i : i + ho, j : j + wo] += dcol[:, i, j]
        return dx.transpose(3, 0, 1, 2)

    return _make(out, ((x, d_x), (kernels, d_kernels), (bias, d_bias)))


def maxpool2(x):
    """Non-overlapping 2x2 max pool; gradient goes to the first row-major argmax."""
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2 expects a 4-d input, got {x.shape}")
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 requires even spatial dims, got {x.shape}")
    pairs = x.data.reshape(b, c, h // 2, 2, w // 2, 2)  # a view in any memory layout
    rows = np.maximum(pairs[..., 0], pairs[..., 1])  # b, c, h/2, 2, w/2: max of each window row
    out = np.maximum(rows[:, :, :, 0], rows[:, :, :, 1])

    def d_x(g):
        # the first row-major maximum: the top row if it holds the window's
        # maximum, and within that row the left element if it holds the row's
        top = rows[:, :, :, 0] == out
        left = pairs[..., 0] == rows
        g_rows = np.empty_like(rows)
        np.multiply(g, top, out=g_rows[:, :, :, 0])
        np.multiply(g, ~top, out=g_rows[:, :, :, 1])
        dx = np.empty_like(pairs)
        np.multiply(g_rows, left, out=dx[..., 0])
        np.multiply(g_rows, ~left, out=dx[..., 1])
        dx += 0.0  # g * False is -0.0 where g < 0; make every zero +0.0
        return dx.reshape(b, c, h, w)

    return _make(out, ((x, d_x),))


def relu(x):
    """Elementwise max(0, x); gradient is zero at x == 0."""
    mask = x.data > 0
    return _make(np.where(mask, x.data, 0), ((x, lambda g: g * mask),))


def cross_entropy_mean(logits, labels):
    """Mean over the batch of -log softmax(logits)[label], max-stabilized."""
    if logits.data.ndim != 2:
        raise ShapeError(f"cross_entropy_mean expects 2-d logits, got {logits.shape}")
    labels = np.asarray(labels)
    n, k = logits.shape
    if labels.shape != (n,):
        raise ValueError(f"labels shape {labels.shape} does not match batch {n}")
    if labels.size and (labels.min() < 0 or labels.max() >= k):
        raise ValueError(f"labels out of range [0,{k}): min={labels.min()} max={labels.max()}")
    z = logits.data - logits.data.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sez = ez.sum(axis=1, keepdims=True)
    softmax = ez / sez
    nll = np.log(sez)[:, 0] - z[np.arange(n), labels]
    loss = np.asarray(nll.mean(), dtype=logits.dtype)

    def d_logits(g):
        d = softmax.copy()
        d[np.arange(n), labels] -= 1
        return d * (g / n)

    return _make(loss, ((logits, d_logits),))


def reshape(x, shape):
    orig = x.data.shape
    return _make(x.data.reshape(shape), ((x, lambda g: g.reshape(orig)),))


def add(a, b):
    """Elementwise sum of two same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeError(f"add requires matching shapes, got {a.shape} and {b.shape}")
    return _make(a.data + b.data, ((a, lambda g: g), (b, lambda g: g)))


def scale(x, c):
    """Multiply by a python scalar."""
    c = float(c)
    return _make(x.data * c, ((x, lambda g: g * c),))


def tensor_sum(x):
    """Sum of all elements, as a scalar tensor."""
    shape, dtype = x.data.shape, x.dtype
    return _make(
        np.asarray(x.data.sum(), dtype=dtype),
        ((x, lambda g: np.broadcast_to(g, shape).astype(dtype, copy=True)),),
    )
