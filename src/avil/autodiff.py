"""Dense tensors with reverse-mode automatic differentiation.

A :class:`Tape` records every differentiable operation executed while it is
active; :func:`backward` replays the records in reverse and returns the
gradients of the leaves, the tracked tensors that no op on the tape
produced (model parameters, tracked inputs), as a ``{leaf: gradient}``
dict. It stores nothing on any tensor, so no gradient outlives the call
that asked for it and there is nothing to clear. The op set is deliberately
small: exactly what a LeNet-style convolutional classifier with per-task
linear heads needs, plus ``reshape`` for the flatten and ``add`` and
``scale`` to compose the weighted task loss. ``tensor_sum`` is in no avil
loss: only the benchmark's per-op probe and the tests call it. No
broadcasting beyond bias addition and scalar scaling.

A record names an operand produced on the same tape by its node index and
holds only leaves as tensors; backward rules capture arrays, shapes and
dtypes, never tensors. An op output points to its tape but the tape never
points back, so a graph is freed by reference counting as soon as its last
output is dropped, without waiting for the cyclic garbage collector.

A record keeps only what its rules read. ``conv2d`` keeps its input,
``relu`` its one-byte mask, and ``maxpool2`` two one-byte masks a quarter
of its input's size each, never the input itself. ``linear`` keeps its
input and weight, ``cross_entropy_mean`` its softmax. ``backward`` drops
each record once its rules have run, so what they captured is freed during
the replay; a tape supports one ``backward``, and a second raises
``RuntimeError``.

``conv2d`` is the encoder's conv layer and its 2x2 max pool in one op. It
never holds the whole conv output: it pools each part of that output, as
``maxpool2`` would, as the part is computed. Under a tape it makes two
records. The first holds the conv's rules and belongs to a node of the
conv output that no tensor holds; the second, the pooled output's, holds
the pool's masks and hands that node the conv output's gradient.
``backward`` follows node indices, so it needs no tensor there.

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
input. Its forward works one part of the output at a time, the parts in
flight together about ``_BLOCK_BYTES`` = 8 MiB of patches and of
part-sized conv outputs; its backward works in blocks of output rows of
about ``_BLOCK_BYTES`` of patches and at least one row. So peak memory
falls by more than half. Parts and blocks also stay under the 32 MiB mmap
threshold ``_HEAP_MMAP_THRESHOLD`` (see below): every request above it is
served from freshly mapped, zero-filled pages, which cost more than the
GEMM they feed (a float64 batch-512 model forward took 55-68 ms with
whole patch matrices and 27-34 ms in blocks, 2 cores).
The budget is in bytes, the unit of what it bounds, so a float64 part or
block holds half the elements of a float32 one. A tape keeps only the
input: the kernel gradient rebuilds each block's patches and sums the
per-block GEMMs, so it moves in the last bits against one whole-matrix
GEMM, and with the block size; the output, the bias gradient and the input
gradient do not.

The encoder kernels split their work over ``_WORKERS`` threads, the cores
this process may run on: the calling thread and the threads of a
``concurrent.futures.ThreadPoolExecutor`` made once per worker count, each
thread taking the next part as it finishes one. A worker runs only
numpy on its own slices of arrays the caller made; every op, record and
tape stays on the calling thread, so nothing a worker does is recorded and
no worker enters an op. ``data`` renders and overlays its synthetic digits
through the same split, so one executor serves the whole process. Each split
computes every output element with the same operations in the same order as
one thread, so results are byte-identical at any worker count (the tests
compare 2, 3, 4 and 8 workers with 1, kernel by kernel and run by run):

- ``conv2d`` forward: parts of about ``_BLOCK_BYTES / _WORKERS``
  bytes, each taken by the next free thread: row pairs of every image or,
  where one row pair is too big, that row pair of a span of images. Pooling
  is elementwise. A part's GEMM sums over the patch rows (cin*k*k), which no
  split divides, and an output element does not depend on how many columns
  its GEMM has while that count is whole rows of its images
  (``_forward_parts`` says why; the tests pin this for the model's shapes
  at batch 1 to 512).
- ``conv2d`` kernel and input gradients: two fixed halves of the input
  channels from ``_SPLIT_BYTES`` of patches, else one group, at any worker
  count, so the backward uses at most two threads. A GEMM's last bits
  depend on its row count (numpy's bundled OpenBLAS gave a (250 x 512) by
  (512 x 20) product other bits in row chunks of 25 to 100 than whole), and
  a group per worker moved conv2's kernel gradient at 4 and 8 workers. The
  blocks and their summation order stay those of one thread; the summed
  dimension is never split, nor is conv1's one input channel: cut by kernel
  row, its skinny GEMMs took longer on two threads than whole on one (11.7
  against 8.8 ms, float64, batch 256).
- ``conv2d`` bias gradient, ``maxpool2`` (forward, masks and VJP), the
  conv's VJP through its pool, and ``relu`` on 4-d inputs (forward and
  VJP): channels, elementwise or one sum per channel.
- ``linear``, ``cross_entropy_mean`` and the helpers run whole.

A split is gated on the bytes of its work: an elementwise kernel's
operand, the output gradient a bias gradient sums, the patches of
``conv2d``'s kernel and input gradients. ``_workers_for`` splits it only
from ``_SPLIT_BYTES``, below which handing a part to a thread costs more
than it saves, and ``conv2d``'s backward cuts its channel halves only from
there. ``conv2d``'s forward has no gate: its parts hold about
``_BLOCK_BYTES / _WORKERS`` bytes of patches and conv buffer each, so at
two workers it cuts only a conv of more than 4 MiB of them.
Each part runs under the caller's floating-point error state, and an
exception in any part is raised to the caller.

Three process settings serve the kernels, and ``_configure_process``
applies them once per process, first thing in ``_split`` and in
``linear``: before any worker thread starts and before the first GEMM,
whoever calls. A run, the synthetic pool that ``avil generate`` and the
benchmark build first, a test and a direct call of a model function all
get the same bytes at the same speed. Nothing is applied at import, so
importing avil leaves the process as it was, and nothing is undone. Each
setting acts only on this process and is skipped where the C library has
no ``mallopt`` or numpy carries no OpenBLAS.

- glibc keeps one heap arena (``mallopt``), so the executor threads
  allocate from the heap the calling thread frees into: a thread with an
  arena of its own allocates memory the calling thread cannot reuse
  (without it the ``diw-eval`` benchmark's peak resident memory rose from
  119.9 to 134.2 MiB).
- glibc's two heap thresholds are fixed: up to ``_HEAP_TRIM_THRESHOLD`` =
  256 MiB of freed heap memory is kept, and requests under
  ``_HEAP_MMAP_THRESHOLD`` = 32 MiB are served from the heap. Each pass
  then reuses the memory the previous pass freed, which the default
  policy hands back to the kernel for the next pass to fault in again.
  Setting either threshold turns off glibc's dynamic mmap threshold, so
  both are set. Neither heap setting changes a computed value.
- numpy's bundled OpenBLAS runs on one thread, so the kernels' workers,
  not BLAS, use the cores. The pin is never switched back: OpenBLAS's own
  threads keep spinning on the other cores after each call, and switching
  to one thread only around the split kernels was slower than not
  splitting (two float64 batch-512 forwards after two-thread passes took
  127 against 102 ms). In a fresh process on 2 cores, a float32 batch-400
  ``loss_grad`` took 31-33 ms without the pin and 23-25 ms with it, and a
  float64 batch-512 ``features`` 27-29 against 16-17 ms.

The pin changes some results on a machine with more than one core, where
OpenBLAS would run on every core: on two threads it sums some GEMMs in
another order. Over every batch size from 1 to 512 (seed-1 model), the
gradient of a batch of 133 or more images whose size is not a multiple of
8 mostly differed in its last bits between one and two BLAS threads, in
both dtypes, and so did that of some multiples of 8 from 392 up (float64;
from 456 up in float32); tape-free features never did. Pinned before the
first GEMM, a gradient has the same bits whether or not a run came before
it in the process (the tests hash one before and after a run), and no
result depends on the machine's core count: the kernels' splits keep
every byte, and the tests compare whole runs at 2, 3, 4 and 8 workers
with 1. The benchmark's workloads (batches and chunks of 144, 208, 256
and 400 images) keep every byte.
"""

from __future__ import annotations

import ctypes
import functools
import os
from concurrent.futures import ThreadPoolExecutor, wait
from pathlib import Path

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


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

    def __init__(self, data, tracked=False):
        self.data = np.asarray(data)
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


def _record(rules):
    """Record the rules of the tracked operands on the active tape: the new node's index, else None."""
    tape = active_tape()
    if tape is None or not any(t.tracked for t, _ in rules):
        return None
    return tape.record(tuple((t.node if t.tape is tape else t, fn) for t, fn in rules if t.tracked))


def _output(data, node):
    """``data`` as an op output, tracked at ``node`` of the active tape unless node is None."""
    out = Tensor(data)
    if node is not None:
        out.tracked, out.tape, out.node = True, active_tape(), node
    return out


def _make(data, rules):
    """Wrap an op result, recording the rules of tracked operands if a tape is active."""
    return _output(data, _record(rules))


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
# worker threads inside the encoder kernels


def _cpu_count():
    """The cores this process may run on; all of the machine's where that cannot be asked."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


# Threads that share each encoder kernel: the calling thread and _WORKERS - 1
# executor threads.
_WORKERS = _cpu_count()
# glibc's mallopt parameter numbers (malloc.h)
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
_M_ARENA_MAX = -8
# Free heap memory kept before any is returned: well above what one pass frees.
_HEAP_TRIM_THRESHOLD = 256 << 20
# Requests this large are mapped fresh: glibc's own dynamic ceiling on 64-bit,
# above every temporary made here. A forward pass holds no whole conv output;
# the largest temporary is the gradient of one, conv1's in a float64
# batch-512 backward (23.6 MB), then an 8 MiB block of conv patches in either
# dtype (``_BLOCK_BYTES``).
_HEAP_MMAP_THRESHOLD = 32 << 20


@functools.cache  # once per process, never undone: see the module docstring
def _configure_process():
    """One heap arena and fixed heap thresholds for glibc, one thread for numpy's bundled OpenBLAS.

    Each is a silent no-op where the C library has no ``mallopt``, or numpy
    carries no OpenBLAS or it has no ``scipy_openblas_set_num_threads64_``.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to open, or no mallopt in it
        pass
    else:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)
        mallopt(_M_TRIM_THRESHOLD, _HEAP_TRIM_THRESHOLD)
        mallopt(_M_MMAP_THRESHOLD, _HEAP_MMAP_THRESHOLD)
    libs = Path(np.__file__).parent.parent / "numpy.libs"
    try:
        set_num_threads = ctypes.CDLL(str(next(libs.glob("libscipy_openblas*")))).scipy_openblas_set_num_threads64_
    except (StopIteration, OSError, AttributeError):  # no bundled OpenBLAS, or no such symbol in it
        return
    set_num_threads.argtypes = (ctypes.c_int,)
    set_num_threads.restype = None
    set_num_threads(1)


@functools.cache  # one executor per worker count, its threads started by the first splits
def _executor(workers):
    return ThreadPoolExecutor(workers - 1, thread_name_prefix="avil-kernel")


def _split(fn, parts):
    """[fn(part) for part in parts], shared by the calling thread and up to _WORKERS - 1 executor threads.

    Each thread takes the next part as it finishes one, so a core that runs
    slower does fewer parts. Returns once every part is done, also when a
    part raised, so no thread still writes into the caller's arrays. Every
    part runs under the caller's floating-point error state (numpy keeps it
    per thread), and an exception raised in any part is raised here.

    A part must not call ``_split``: run on an executor thread, the inner
    split would wait for parts queued behind the part that waits.
    """
    _configure_process()
    helpers = min(_WORKERS, len(parts)) - 1
    if helpers < 1:
        return [fn(part) for part in parts]
    results = [None] * len(parts)
    todo = enumerate(parts)  # shared: each next() on it is atomic under the GIL
    errors = np.geterr()

    def drain():
        with np.errstate(**errors):
            for i, part in todo:
                results[i] = fn(part)

    futures = [_executor(_WORKERS).submit(drain) for _ in range(helpers)]
    try:
        drain()
    finally:
        wait(futures)
    for future in futures:
        future.result()  # raises a helper's exception
    return results


def _spans(n, parts):
    """range(n) cut into min(parts, n) contiguous slices (one when n is 0), sizes differing by at most one."""
    parts = max(1, min(parts, n))
    return [slice(n * i // parts, n * (i + 1) // parts) for i in range(parts)]


# Bytes of work below which a kernel runs whole, in either dtype: each split
# costs a hand-off to an executor thread and back (about 0.02 ms for two
# trivial parts, numpy 2.4, Python 3.11). Break-evens on 2 shared cores, BLAS
# on one thread: conv2's kernel and input gradients at 2 workers near 1.9 MB
# of patches in float32 and 2.2 MB in float64 (batch 30 and 17; at batch 8 the
# split took 6-39% longer), and a float32 maxpool2 of 2 MiB took 0.41 ms whole
# and 0.40 ms split. Above it in float64, relu forward and VJP on 2.0 MiB took
# 1.68 ms whole and 1.10 ms split, and maxpool2 forward and VJP on 2.5 MiB
# 2.31 and 1.66 ms.
_SPLIT_BYTES = 2 << 20


def _workers_for(nbytes):
    return _WORKERS if nbytes >= _SPLIT_BYTES else 1


def _channel_parts(a):
    """Index tuples cutting a 4-d (b, c, h, w) array into a channel range per worker, else the whole array."""
    if a.ndim != 4:
        return [...]
    return [(slice(None), cs) for cs in _spans(a.shape[1], _workers_for(a.nbytes))]


def _empty_in_layout(shape, strides, dtype):
    """An empty array of ``shape`` whose axes lie in memory in the order ``strides`` gives them."""
    order = np.argsort(strides, kind="stable")[::-1]  # outermost first
    return np.empty(np.take(shape, order), dtype).transpose(np.argsort(order))


# ---------------------------------------------------------------------------
# operations


def linear(x, weight, bias):
    """x[batch,in] @ weight[in,out] + bias[out], bias broadcast over batch.

    The input gradient has x's memory order: C-order for a C-contiguous x,
    else F-order, the order of a flattened batch-innermost activation.
    """
    _configure_process()
    if x.data.ndim != 2 or weight.data.ndim != 2:
        raise ValueError(f"linear expects 2-d operands, got {x.shape} and {weight.shape}")
    if x.shape[1] != weight.shape[0]:
        raise ValueError(f"linear inner dimensions disagree: x {x.shape} vs weight {weight.shape}")
    if bias.shape != (weight.shape[1],):
        raise ValueError(f"linear bias shape {bias.shape} does not match weight {weight.shape}")
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


# Bytes of patches in one row block of conv2d, in either dtype (2**21
# float32 or 2**20 float64 elements), bounding peak memory and staying under
# _HEAP_MMAP_THRESHOLD, above which glibc maps every request fresh.
_BLOCK_BYTES = 8 << 20


def _row_blocks(ho, row_elements, block):
    """Slices of output rows holding about ``block`` patch elements each, at least one row."""
    rows = max(1, block // row_elements)
    return [slice(r, min(r + rows, ho)) for r in range(0, ho, rows)]


def _forward_parts(ho, b, row_elements, block):
    """(output rows, images) slices of a conv forward, parts of about ``block / _WORKERS`` elements.

    ``block`` is ``_BLOCK_BYTES`` in elements of the conv's compute dtype,
    and ``row_elements`` what one output row of one image needs. A part takes
    whole row pairs of every image while one fits, the last part maybe
    fewer; else one row pair of a span of images, the spans of a batch
    differing by at most one image.

    Images, not columns, are cut so that a part's GEMM has whole rows of
    each of its images as columns. Numpy's bundled OpenBLAS, on an AVX-512
    Xeon, gives some columns of a small GEMM (under about 10**6
    multiply-adds) other last bits when their count is not a multiple of 8
    (float64) or 16 (float32). A pooled row pair of the model's convs is 48
    or 16 columns per image; cut into column pairs, odd batches gave parts
    of 4 columns per image, whose outputs moved at 3 or more workers.
    """
    per_part = block // _WORKERS // row_elements  # rows of one image
    rows = per_part // b // 2 * 2
    if rows:
        return [(slice(r, min(r + rows, ho)), slice(0, b)) for r in range(0, ho, rows)]
    images = max(1, per_part // 2)  # at most, per part
    spans = _spans(b, -(-b // images))
    return [(slice(r, r + 2), span) for r in range(0, ho, 2) for span in spans]


def conv2d(x, kernels, bias):
    """2x2 max pool of the valid stride-1 cross-correlation of x[b,cin,h,w] with kernels[cout,cin,k,k].

    The pool is ``maxpool2``'s, ties and gradient routing included, but the
    whole conv output, whose spatial dims must be even, is never held.

    Accepts x in any layout and lays it out batch-innermost as (cin, h, w, b)
    in the result dtype of x and the kernels: free for an activation, and
    for the images one small copy that also converts them. The output and
    the input gradient are (b, c, h, w) views of batch-innermost (c, h, w, b)
    memory.

    The output is computed one part at a time (``_forward_parts``): row pairs
    of every image or, where one row pair is too big, that row pair of a span
    of images. The part's patch matrix, (cin*k*k, rows*wo*images) with rows in
    the kernel's (cin, ki, kj) order, is copied along batch-innermost rows and
    multiplied into a part-sized conv buffer, the bias is added while it is in
    cache, and the buffer is pooled into the output there (and into the masks,
    under a tape). Each part goes to the next free worker thread, and holds
    about ``_BLOCK_BYTES / _WORKERS`` bytes of patches and conv buffer, so no
    temporary grows with k*k times the input: peak memory stays near that of
    the input, output and gradients, and no part reaches the 32 MiB mmap
    threshold (``_HEAP_MMAP_THRESHOLD``) above which glibc maps and
    zero-fills fresh pages on every request.

    A tape keeps only the input. The kernel gradient rebuilds the patches
    of blocks of ``_BLOCK_BYTES`` and sums the per-block GEMMs, block by
    block, for each channel group's patch rows; the input gradient forms one
    block's patch gradient at a time and does its k*k shifted adds, for each
    group's channels. These rules are recorded on a node of the conv output
    that no tensor holds, and the pool's mask scatter on the output, whose
    gradient it hands that node.
    """
    if x.data.ndim != 4 or kernels.data.ndim != 4:
        raise ValueError(f"conv2d expects 4-d operands, got {x.shape} and {kernels.shape}")
    b, cin, h, w = x.shape
    cout, cin_k, k, k2 = kernels.shape
    if k != k2 or cin != cin_k:
        raise ValueError(f"conv2d kernels {kernels.shape} do not match input {x.shape}")
    if h < k or w < k:
        raise ValueError(f"conv2d kernel {kernels.shape} larger than input {x.shape}")
    if bias.shape != (cout,):
        raise ValueError(f"conv2d bias shape {bias.shape} does not match kernels {kernels.shape}")
    ho, wo = h - k + 1, w - k + 1
    if ho % 2 or wo % 2:
        raise ValueError(f"conv2d requires an even conv output to pool, got {ho}x{wo} from input {x.shape}")
    xt = np.ascontiguousarray(x.data.transpose(1, 2, 3, 0), dtype=np.result_type(kernels.data, x.data))
    win = sliding_window_view(xt, (k, k), axis=(1, 2))  # cin, ho, wo, b, k, k
    kmat = kernels.data.reshape(cout, -1)
    dtype = x.dtype
    out_dtype = xt.dtype
    block = _BLOCK_BYTES // out_dtype.itemsize  # elements of the compute dtype

    def patches(rs, images=slice(None), chans=slice(None)):
        """Patch rows of input channels chans, in (cin, ki, kj) order, for output rows rs of some images."""
        part = win[chans, rs, :, images]
        return np.ascontiguousarray(part.transpose(0, 4, 5, 1, 2, 3)).reshape(len(part) * k * k, -1)

    def rows(a, rs):
        return a[:, rs].reshape(a.shape[0], -1)  # a view: a is (c, ho, wo, b) C-contiguous

    def bchw(a):
        return a.transpose(3, 0, 1, 2)  # the (b, c, h, w) view of (c, h, w, b) memory

    taped = active_tape() is not None and any(t.tracked for t in (x, kernels, bias))
    out = np.empty((cout, ho // 2, wo // 2, b), dtype=out_dtype)
    masks = [np.empty(out.shape, dtype=bool) for _ in range(2)] if taped else []

    def forward(part):
        rs, images = part
        conv = kmat @ patches(rs, images)
        conv += bias.data[:, None]
        pooled = (slice(None), slice(rs.start // 2, rs.stop // 2), slice(None), images)
        conv = bchw(conv.reshape(cout, rs.stop - rs.start, wo, -1))
        _pool_into(conv, *(bchw(a[pooled]) for a in [out, *masks]))

    # per output position of an image a part holds a patch column and a conv buffer column
    _split(forward, _forward_parts(ho, b, (kmat.shape[1] + cout) * wo, block))
    if not taped:
        return Tensor(bchw(out))

    # the backward GEMMs: one per block, each cut into two fixed halves of the
    # input channels from _SPLIT_BYTES of patches, whatever the worker count
    blocks = _row_blocks(ho, kmat.shape[1] * wo * b, block)
    channels = _spans(cin, 2 if kmat.shape[1] * ho * wo * b * out_dtype.itemsize >= _SPLIT_BYTES else 1)

    def batch_innermost(g):
        return np.ascontiguousarray(g.transpose(1, 2, 3, 0))  # free when g is batch-innermost

    def d_kernels(g):
        # this GEMM orientation beat g @ patches.T on whole patch matrices at
        # batch 400, float32, 2 cores: 5.1 against 6.8-7.7 ms for conv1, 2.6
        # against 4.3 ms for conv2. The summed dimension is never split.
        gt = batch_innermost(g)

        def channel_gradient(cs):
            total = None
            for rs in blocks:
                block = patches(rs, chans=cs) @ rows(gt, rs).T
                total = block if total is None else np.add(total, block, out=total)
            return total

        return np.concatenate(_split(channel_gradient, channels)).T.reshape(cout, cin, k, k)

    def d_bias(g):
        sums = batch_innermost(g).reshape(cout, -1)
        return np.concatenate(_split(lambda cs: sums[cs].sum(axis=1), _spans(cout, _workers_for(sums.nbytes))))

    def d_x(g):
        # transposed convolution: scatter each output's patch gradient back
        # onto its window, k*k shifted adds along batch-innermost rows. The
        # blocks go last to first, so every element of dx sums its terms in
        # (i, j) order, as one block would.
        gt = batch_innermost(g)
        dx = np.empty((cin, h, w, b), dtype=dtype)
        kt = kmat.T.reshape(cin, k * k, cout)  # a view

        def scatter(cs):
            dxc, ktc = dx[cs], kt[cs].reshape(-1, cout)
            dxc.fill(0)
            for rs in reversed(blocks):
                dcol = (ktc @ rows(gt, rs)).reshape(len(dxc), k, k, -1, wo, b)
                for i in range(k):
                    for j in range(k):
                        dxc[:, rs.start + i : rs.stop + i, j : j + wo] += dcol[:, i, j]
                del dcol  # one block's patch gradient at a time, not two

        _split(scatter, channels)
        return bchw(dx)

    top, left = (bchw(m) for m in masks)

    def d_conv(g):
        return _unpool(g, top, left, bchw(np.empty((cout, ho, wo, b), dtype=out_dtype)))

    # the conv output's node: no tensor holds that output
    conv_node = _record(((x, d_x), (kernels, d_kernels), (bias, d_bias)))
    return _output(bchw(out), active_tape().record(((conv_node, d_conv),)))


def _windows(a):
    """A (b, c, h, w) array as (b, c, h/2, 2, w/2, 2) 2x2 windows: splitting axes is a view in any layout."""
    b, c, h, w = a.shape
    return a.reshape(b, c, h // 2, 2, w // 2, 2)


def _pool_into(xd, out, top=None, left=None):
    """maxpool2's forward: the 2x2 window maxima of (b, c, h, w) xd into out, and its masks if given."""
    pairs = _windows(xd)
    rows = np.maximum(pairs[..., 0], pairs[..., 1])  # b, c, h/2, 2, w/2: max of each window row
    np.maximum(rows[:, :, :, 0], rows[:, :, :, 1], out=out)
    if top is not None:
        is_top = np.equal(rows[:, :, :, 0], out, out=top)
        # each row's left element against that row's maximum, not the window's:
        # they differ when only the top row holds a NaN
        left_of_row = pairs[..., 0] == rows
        np.bitwise_or(  # np.where took 20x as long
            is_top & left_of_row[:, :, :, 0], ~is_top & left_of_row[:, :, :, 1], out=left
        )


def _unpool(g, top, left, dx):
    """maxpool2's VJP: g scattered through the masks into the empty (b, c, h, w) dx, split by channel."""

    def scatter(cs):
        win = _windows(dx[cs])
        is_left = left[cs]
        cols = (is_left, ~is_left)
        for r, row in enumerate((top[cs], ~top[cs])):
            for s, col in enumerate(cols):
                np.multiply(g[cs], row & col, out=win[:, :, :, r, :, s])
        win += 0.0  # g * False is -0.0 where g < 0; make every zero +0.0

    _split(scatter, _channel_parts(dx))
    return dx


def maxpool2(x):
    """Non-overlapping 2x2 max pool; gradient goes to the first row-major argmax.

    The output is laid out like x, and so is the input gradient. Under a
    tape with a tracked input, the record keeps two one-byte masks of the
    output's shape, never the input: ``top``, the window's top row holds its
    maximum, and ``left``, the chosen row's left element holds that row's
    maximum. A tape-free call computes no masks. Forward and backward are
    split by channel over the workers. The encoder pools inside ``conv2d``;
    only the benchmark's per-op probe and the tests call this op.
    """
    if x.data.ndim != 4:
        raise ValueError(f"maxpool2 expects a 4-d input, got {x.shape}")
    b, c, h, w = x.shape
    if h % 2 or w % 2:
        raise ValueError(f"maxpool2 requires even spatial dims, got {x.shape}")
    xd, strides, dtype = x.data, x.data.strides, x.dtype
    taped = x.tracked and active_tape() is not None
    out = _empty_in_layout((b, c, h // 2, w // 2), strides, dtype)
    masks = [_empty_in_layout(out.shape, strides, bool) for _ in range(2)] if taped else []
    _split(lambda cs: _pool_into(xd[cs], *(a[cs] for a in [out, *masks])), _channel_parts(xd))
    if not taped:
        return Tensor(out)
    top, left = masks

    def d_x(g):
        return _unpool(g, top, left, _empty_in_layout((b, c, h, w), strides, dtype))  # strides: no input kept

    return _make(out, ((x, d_x),))


def relu(x):
    """Elementwise max(0, x) in x's memory layout; gradient is zero at x == 0.

    Every zero of the output is +0.0 and +inf stays +inf. A NaN or -inf
    input gives NaN, not 0, so it reaches the loss; a training or tuning
    pass whose loss or gradient is not finite fails its seed. A 4-d input
    is split by channel over the workers, forward and backward.
    """
    xd = x.data
    mask = _empty_in_layout(xd.shape, xd.strides, bool)
    out = _empty_in_layout(xd.shape, xd.strides, np.result_type(xd, mask))

    def forward(cs):
        np.greater(xd[cs], 0, out=mask[cs])
        part = np.multiply(xd[cs], mask[cs], out=out[cs])
        part += 0.0  # x * False is -0.0 where x < 0; make every zero +0.0

    _split(forward, _channel_parts(xd))

    def d_x(g):
        dx = _empty_in_layout(g.shape, g.strides, np.result_type(g, mask))
        _split(lambda cs: np.multiply(g[cs], mask[cs], out=dx[cs]), _channel_parts(g))
        return dx

    return _make(out, ((x, d_x),))


def cross_entropy_mean(logits, labels):
    """Mean over the batch of -log softmax(logits)[label], max-stabilized."""
    if logits.data.ndim != 2:
        raise ValueError(f"cross_entropy_mean expects 2-d logits, got {logits.shape}")
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
        raise ValueError(f"add requires matching shapes, got {a.shape} and {b.shape}")
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
