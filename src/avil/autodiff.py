"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tape` records every differentiable operation executed while it is
active; :func:`backward` replays the records in reverse and returns the
gradients of the leaves, the tracked tensors that no op on the tape
produced (model parameters, tracked inputs), as a ``{leaf: gradient}``
dict. It stores nothing on any tensor, so no gradient outlives the call
that asked for it and there is nothing to clear. The op set is deliberately
small: exactly what a LeNet-style convolutional classifier with per-task
linear heads needs, plus a few helpers (reshape, add, scale, tensor_sum)
used to compose losses. No broadcasting beyond bias addition and scalar
scaling.

A record names an operand produced on the same tape by its node index and
holds only leaves as tensors; backward rules capture arrays, shapes and
dtypes, never tensors. An op output points to its tape but the tape never
points back, so a graph is freed by reference counting as soon as its last
output is dropped, without waiting for the cyclic garbage collector.

A record keeps only what its rules read. ``conv2d`` keeps its input,
``relu`` its one-byte mask, and ``maxpool2`` two one-byte masks a quarter
of its input's size each, never the input itself, so a conv output that
feeds a pool is freed as soon as the pool's forward returns. ``linear``
keeps its input and weight, ``cross_entropy_mean`` its softmax. ``backward``
drops each record once its rules have run, so what they captured is freed
during the replay; a tape supports one ``backward``, and a second raises
``RuntimeError``.

Convolution is valid (no padding), stride 1, with cross-correlation
semantics (no kernel flip). Max pooling is non-overlapping 2x2, ties broken
by the first element in row-major window order so that training runs are
bit-reproducible.

Every op accepts operands in any memory layout. The encoder keeps one:
each activation and each activation gradient is a (batch, channel, h, w)
view of batch-innermost (channel, h, w, batch) memory, the layout in which
the conv patch copy, both pooling steps and relu run along long rows.
``conv2d`` lays its input out that way (free for an activation, one small
copy for the images) and returns its output and input gradient in it;
``maxpool2``, ``relu``, ``add`` and ``scale`` keep their operand's layout,
so does ``linear``'s input gradient, and the flatten of a batch-innermost
activation to (batch, features) is a view in both directions.

``conv2d`` never holds a whole patch matrix, which is k*k = 25 times its
input. It works one block of output rows at a time, each block about
``_BLOCK_ELEMENTS`` = 2**21 patch elements (16 MiB in float64) and at least
one row, so peak memory falls by more than half. The blocks also stay under
the 32 MiB mmap threshold that ``harness`` fixes for a run (glibc's own
ceiling otherwise): every request above it is served from freshly mapped,
zero-filled pages, which cost more than the GEMM they feed (a float64
batch-512 model forward took 55-68 ms with whole patch matrices and 27-34
ms in blocks, 2 cores). A tape keeps only the input: the kernel gradient
rebuilds each block's patches and sums the per-block GEMMs, so it moves in
the last bits against one whole-matrix GEMM; the output, the bias gradient
and the input gradient do not.
"""

from __future__ import annotations

import functools

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class ShapeError(ValueError):
    """Operand shapes are incompatible for the requested operation."""


class Tensor:
    """N-dimensional real array, optionally tracked for differentiation.

    ``tracked`` marks participation in differentiation: ops record a backward
    rule only for tracked operands. An op output recorded on a tape carries
    that ``tape`` and its ``node`` index there. Data is immutable by
    convention after an op creates it. avil never sets ``grad``:
    :func:`backward` returns gradients rather than storing them.
    """

    # grad stays a slot because avilbench/layers.py assigns ``t.grad = None``
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

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, tracked={self.tracked})"


_tape_stack = []  # the entered tapes, innermost last


def active_tape():
    """The innermost entered tape, or None."""
    return _tape_stack[-1] if _tape_stack else None


class Tape:
    """Ordered record of operations for one reverse-mode pass.

    Record ``i`` belongs to the op output with ``node == i`` and lists the
    backward rules of its tracked operands, each keyed by the operand's node
    index on this tape, or by the operand itself when it is a leaf.
    :func:`backward` replaces each record it has run with None.
    """

    def __init__(self):
        self._records = []

    def __enter__(self):
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        if active_tape() is not self:
            raise RuntimeError("tapes must be exited in the reverse order of entering them")
        _tape_stack.pop()
        return False

    def record(self, rules):
        """Append one op's rules; returns the node index of its output."""
        self._records.append(rules)
        return len(self._records) - 1


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
    """Gradients of ``loss`` as ``{leaf: gradient}`` for every leaf feeding it.

    Nothing is written onto any tensor, and the call works also after the
    tape's ``with`` block has exited. The replay walks the tape in reverse
    recording order from the loss's node, so a tensor consumed several times
    receives the sum of all branch contributions.

    Each record is dropped once its rules have run, so what they captured
    is freed during the replay. A tape therefore supports one backward: a
    second call that reaches a consumed record raises ``RuntimeError``.
    """
    if loss.data.size != 1:
        raise ValueError(f"backward requires a scalar loss, got shape {loss.data.shape}")
    if loss.tape is None:
        raise ValueError("loss was not produced under an active tape")
    records = loss.tape._records
    adjoint = {loss.node: np.ones_like(loss.data)}
    grads = {}
    for node in range(loss.node, -1, -1):
        g = adjoint.pop(node, None)
        if g is None:
            continue
        if records[node] is None:
            raise RuntimeError("backward already ran on this tape")
        for operand, vjp in records[node]:
            contrib = vjp(g)
            # a node index for an op output, the tensor itself for a leaf
            acc = adjoint if isinstance(operand, int) else grads
            prev = acc.get(operand)
            acc[operand] = contrib if prev is None else prev + contrib
        records[node] = None
    return grads


# ---------------------------------------------------------------------------
# operations


def linear(x, weight, bias):
    """x[batch,in] @ weight[in,out] + bias[out], bias broadcast over batch.

    The input gradient has x's memory order: C-order for a C-contiguous x,
    else F-order, the order of a flattened batch-innermost activation.
    """
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ShapeError(f"linear expects 2-d operands, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[0]:
        raise ShapeError(f"linear inner dimensions disagree: x {x.shape} vs weight {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise ShapeError(f"linear bias shape {bias.shape} does not match weight {weight.shape}")
    out = x.data @ weight.data + bias.data
    xd, wd = x.data, weight.data
    d_x = (lambda g: g @ wd.T) if xd.flags.c_contiguous else (lambda g: (wd @ g.T).T)
    return _make(
        out,
        (
            (x, d_x),
            (weight, lambda g: xd.T @ g),
            (bias, lambda g: g.sum(axis=0)),
        ),
    )


# Patch elements in one row block of conv2d: 8 MiB in float32, 16 MiB in
# float64, bounding peak memory and staying under the 32 MiB mmap threshold
# (fixed in harness) above which glibc maps every request fresh.
_BLOCK_ELEMENTS = 1 << 21


def _row_blocks(ho, row_elements):
    """Slices of output rows holding about _BLOCK_ELEMENTS patch elements each, at least one row."""
    rows = max(1, _BLOCK_ELEMENTS // row_elements)
    return [slice(r, min(r + rows, ho)) for r in range(0, ho, rows)]


def conv2d(x, kernels, bias):
    """Valid stride-1 cross-correlation of x[b,cin,h,w] with kernels[cout,cin,k,k].

    Accepts x in any layout and lays it out batch-innermost as (cin, h, w, b),
    which is free for an activation and one small copy for the images. The
    output and the input gradient are (b, c, h, w) views of batch-innermost
    (c, h, w, b) memory.

    The output is computed one block of output rows at a time: the block's
    patch matrix, (cin*k*k, rows*wo*b) with rows in the kernel's (cin, ki,
    kj) order, is copied along rows wo*b long and multiplied straight into
    the output rows, and the bias is added while they are in cache. A block
    holds about ``_BLOCK_ELEMENTS`` patch elements and at least one output
    row, so no temporary grows with k*k times the input: peak memory stays
    near that of the input, output and gradients, and no block reaches the
    32 MiB mmap threshold (see ``harness``) above which glibc maps and
    zero-fills fresh pages on every request. A tape keeps only the input.
    The kernel gradient rebuilds each block's patches and sums the per-block
    GEMMs, block by block; the input gradient forms one block's patch
    gradient at a time and does its k*k shifted adds.
    """
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
    ho, wo = h - k + 1, w - k + 1
    xt = np.ascontiguousarray(x.data.transpose(1, 2, 3, 0))
    win = sliding_window_view(xt, (k, k), axis=(1, 2))  # cin, ho, wo, b, k, k
    kmat = kernels.data.reshape(cout, -1)
    blocks = _row_blocks(ho, kmat.shape[1] * wo * b)
    dtype = x.dtype

    def patches(rs):
        return np.ascontiguousarray(win[:, rs].transpose(0, 4, 5, 1, 2, 3)).reshape(kmat.shape[1], -1)

    def rows(a, rs):
        return a[:, rs].reshape(a.shape[0], -1)  # a view: a is (c, ho, wo, b) C-contiguous

    out = np.empty((cout, ho, wo, b), dtype=np.result_type(kmat, xt))
    for rs in blocks:
        out_rows = rows(out, rs)
        np.matmul(kmat, patches(rs), out=out_rows)
        out_rows += bias.data[:, None]

    def batch_innermost(g):
        return np.ascontiguousarray(g.transpose(1, 2, 3, 0))  # free when g is batch-innermost

    def d_kernels(g):
        # this GEMM orientation beat g @ patches.T on whole patch matrices at
        # batch 400, float32, 2 cores: 5.1 against 6.8-7.7 ms for conv1, 2.6
        # against 4.3 ms for conv2
        gt = batch_innermost(g)
        parts = (patches(rs) @ rows(gt, rs).T for rs in blocks)
        return functools.reduce(np.add, parts).T.reshape(cout, cin, k, k)

    def d_bias(g):
        return batch_innermost(g).reshape(cout, -1).sum(axis=1)

    def d_x(g):
        # transposed convolution: scatter each output's patch gradient back
        # onto its window, k*k shifted adds along batch-innermost rows. The
        # blocks go last to first, so every element of dx sums its terms in
        # (i, j) order, as one block would.
        gt = batch_innermost(g)
        dx = np.zeros((cin, h, w, b), dtype=dtype)
        for rs in reversed(blocks):
            dcol = (kmat.T @ rows(gt, rs)).reshape(cin, k, k, -1, wo, b)
            for i in range(k):
                for j in range(k):
                    dx[:, rs.start + i : rs.stop + i, j : j + wo] += dcol[:, i, j]
            del dcol  # one block's patch gradient at a time, not two
        return dx.transpose(3, 0, 1, 2)

    return _make(out.transpose(3, 0, 1, 2), ((x, d_x), (kernels, d_kernels), (bias, d_bias)))


def maxpool2(x):
    """Non-overlapping 2x2 max pool; gradient goes to the first row-major argmax.

    Under a tape with a tracked input, the record keeps two one-byte masks
    of the output's shape, never the input: ``top``, the window's top row
    holds its maximum, and ``left``, the chosen row's left element holds
    that row's maximum. A tape-free call computes no masks.
    """
    if x.data.ndim != 4:
        raise ShapeError(f"maxpool2 expects a 4-d input, got {x.shape}")
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ShapeError(f"maxpool2 requires even spatial dims, got {x.shape}")
    pairs = x.data.reshape(b, c, h // 2, 2, w // 2, 2)  # a view in any memory layout
    rows = np.maximum(pairs[..., 0], pairs[..., 1])  # b, c, h/2, 2, w/2: max of each window row
    out = np.maximum(rows[:, :, :, 0], rows[:, :, :, 1])
    if not x.tracked or active_tape() is None:
        return Tensor(out)
    top = rows[:, :, :, 0] == out
    # each row's left element against that row's maximum, not the window's:
    # they differ when only the top row holds a NaN
    left_of_row = pairs[..., 0] == rows
    left = (top & left_of_row[:, :, :, 0]) | (~top & left_of_row[:, :, :, 1])  # np.where took 20x as long
    dtype = x.dtype
    memory_order = np.argsort(x.data.strides, kind="stable")[::-1]  # x's axes, outermost first

    def d_x(g):
        # laid out like x; the masks' order is ambiguous where the output has a size-1 axis
        dx = np.empty(np.take((b, c, h, w), memory_order), dtype).transpose(np.argsort(memory_order))
        win = dx.reshape(b, c, h // 2, 2, w // 2, 2)  # splitting axes is always a view
        cols = (left, ~left)
        for r, row in enumerate((top, ~top)):
            for s, col in enumerate(cols):
                np.multiply(g, row & col, out=win[:, :, :, r, :, s])
        dx += 0.0  # g * False is -0.0 where g < 0; make every zero +0.0
        return dx

    return _make(out, ((x, d_x),))


def relu(x):
    """Elementwise max(0, x) in x's memory layout; gradient is zero at x == 0.

    Every zero of the output is +0.0 and +inf stays +inf. A NaN or -inf
    input gives NaN, not 0, so it reaches the loss; a training or tuning
    pass whose loss or gradient is not finite fails its seed.
    """
    mask = x.data > 0
    out = x.data * mask
    out += 0.0  # x * False is -0.0 where x < 0; make every zero +0.0
    return _make(out, ((x, lambda g: g * mask),))


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
