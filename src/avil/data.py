"""Datasets: IDX parsing, overlaid-digit synthesis, splits, sampling, batching.

The two-task image set is built by pairing each source digit with a random
partner, placing the first in the top-left and the second in the bottom-right
of a 36x36 canvas (each offset 4 pixels diagonally from center), merging by
per-pixel max, and downscaling to 28x28 with bilinear interpolation. Task
"tl" classifies the top-left digit, task "br" the bottom-right one.

Every sampling operation is a pure function of (data, seed, epoch[, key]):
reruns reproduce byte-identical subsets and orders. Seeds and string keys
are folded into one generator seed via crc32, never python's salted hash.

A deterministic synthetic digit source (`synthetic_mnist`) is provided
as a configuration-visible alternative for environments without the
standard IDX files; it renders seeded glyphs with random affine +
elastic deformation, blur and contrast jitter so that classifier
accuracies land in the same regime as on handwritten digits. It renders
64 digits per chunk (one block of draws), split into at most one part
per thread that shares the encoder kernels, none under 32 digits (one
displacement blur, one warp, one per-image blur a part), so its output
equals an image-at-a-time rendering byte for byte while peak memory
stays that of one chunk at any worker count (1000 digits traced 5.3 MiB
over the result). The blurs and the warp are numpy code that mirrors
scipy's ``gaussian_filter`` and ``map_coordinates`` bit for bit, tested
against it; scipy is not imported here. The overlays are split over the
same threads the same way (``_by_chunk``).
"""

from __future__ import annotations

import gzip
import io
import math
import struct
import zlib
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import autodiff
from .errors import ConfigError
from .files import read_array, read_exact, replace_atomically

TASK_TOP_LEFT = "tl"
TASK_BOTTOM_RIGHT = "br"
CACHE_MAGIC = b"MM01"

IDX_IMAGES_MAGIC = 0x00000803
IDX_LABELS_MAGIC = 0x00000801


@dataclass
class MultiMnistSet:
    """The images ``pixels[rows]`` in [0,1], with one class-label vector per task.

    ``pixels`` [N,1,28,28] may be shared with other sets: ``take`` composes
    row indices and copies no image, so a seed's train and dev sets and its
    desk subset all read the pool's array. Every reader gets its images
    through ``gather``, which copies just the rows it is asked for. A pool
    built by ``make_multimnist`` or ``load_cache`` holds all of its rows
    (``whole``). Sets are immutable by convention: a write into ``pixels``
    shows in every set over that array.

    A label vector of the wrong length or with a label outside 0-9 is a
    ConfigError naming the split and the task.
    """

    pixels: np.ndarray
    rows: np.ndarray
    labels: dict
    split: str

    def __post_init__(self):
        if self.pixels.ndim != 4 or self.pixels.shape[1] != 1:
            raise ConfigError(f"{self.split} images must have shape [n, 1, h, w], got {self.pixels.shape}")
        for task, y in self.labels.items():
            if y.shape != (len(self),):
                raise ConfigError(
                    f"{self.split} labels of task {task!r} have shape {y.shape}, expected ({len(self)},)"
                )
            bad = y[(y < 0) | (y > 9)]
            if bad.size:
                raise ConfigError(f"{self.split} labels of task {task!r} must be digits 0-9, got {bad[0]}")

    @classmethod
    def whole(cls, pixels, labels, split):
        """The set of every row of ``pixels``, in order."""
        return cls(pixels=pixels, rows=np.arange(len(pixels)), labels=labels, split=split)

    def __len__(self):
        return len(self.rows)

    def gather(self, positions):
        """A new array of the images at ``positions`` (an index array or a slice) of this set."""
        return self.pixels[self.rows[positions]]

    def take(self, indices, split=None):
        """The subset at ``indices``, over the same ``pixels``."""
        indices = np.asarray(indices)
        return MultiMnistSet(
            pixels=self.pixels,
            rows=self.rows[indices],
            labels={t: y[indices] for t, y in self.labels.items()},
            split=self.split if split is None else split,
        )


def _rng(seed, *keys):
    """Deterministic generator keyed by a seed plus int/str components."""
    entropy = [int(seed) & 0xFFFFFFFF]
    for key in keys:
        if isinstance(key, str):
            entropy.append(zlib.crc32(key.encode("utf-8")))
        else:
            entropy.append(int(key) & 0xFFFFFFFF)
    return np.random.default_rng(entropy)


# ---------------------------------------------------------------------------
# IDX files


def _open_maybe_gzip(path):
    """The open file, or for gzip input its decompressed bytes in memory.

    ``read_exact`` seeks to the end to find the bytes left, which a
    ``GzipFile`` cannot do, and its ``fileno`` is the compressed file. The
    official train images take 47 MB decompressed.
    """
    fh = open(path, "rb")
    if fh.read(2) != b"\x1f\x8b":
        fh.seek(0)
        return fh
    with fh:
        fh.seek(0)
        try:
            return io.BytesIO(gzip.decompress(fh.read()))
        except (EOFError, zlib.error) as exc:  # a bad gzip header is an OSError already
            raise ConfigError(f"{path}: bad gzip data ({exc})") from None


def load_idx(images_path, labels_path):
    """Parse a big-endian IDX image/label file pair.

    Either file may be gzip-compressed. Returns (images [n,28,28] float32
    scaled to [0,1], labels [n] int64). Raises ConfigError on bad magic, on
    a header that implies more bytes than the file holds (checked before
    they are read), on bad gzip data, or on an image/label count mismatch.
    """
    with _open_maybe_gzip(images_path) as fh:
        magic, n, rows, cols = struct.unpack(">IIII", read_exact(fh, 16, images_path))
        if magic != IDX_IMAGES_MAGIC:
            raise ConfigError(
                f"{images_path}: bad image magic 0x{magic:08x} at offset 0 (expected 0x{IDX_IMAGES_MAGIC:08x})"
            )
        raw = read_exact(fh, n * rows * cols, images_path)
        images = np.frombuffer(raw, dtype=np.uint8).reshape(n, rows, cols)
    with _open_maybe_gzip(labels_path) as fh:
        magic, n_labels = struct.unpack(">II", read_exact(fh, 8, labels_path))
        if magic != IDX_LABELS_MAGIC:
            raise ConfigError(
                f"{labels_path}: bad label magic 0x{magic:08x} at offset 0 (expected 0x{IDX_LABELS_MAGIC:08x})"
            )
        labels = np.frombuffer(read_exact(fh, n_labels, labels_path), dtype=np.uint8)
    if n != n_labels:
        raise ConfigError(
            f"{images_path} has {n} images but {labels_path} has {n_labels} labels"
        )
    images = images.astype(np.float32)
    images /= 255.0  # in place: one float32 copy of the pool, not two
    return images, labels.astype(np.int64)


def find_idx_pair(directory, prefix):
    """Locate `<prefix>-images-idx3-ubyte[.gz]` and the matching label file."""
    directory = Path(directory)
    pair = []
    for kind, code in (("images", "idx3"), ("labels", "idx1")):
        stem = f"{prefix}-{kind}-{code}-ubyte"
        for candidate in (directory / stem, directory / (stem + ".gz")):
            if candidate.exists():
                pair.append(candidate)
                break
        else:
            raise FileNotFoundError(f"no {stem}[.gz] under {directory}")
    return tuple(pair)


# ---------------------------------------------------------------------------
# overlaid-digit synthesis

CANVAS = 36
SHIFT = 8  # top-left digit at +0, bottom-right at +8: both 4 px off center


def overlay_pair(top_left, bottom_right):
    """36x36 canvases [..., 36, 36]: shifted 28x28 digits merged by per-pixel max."""
    canvas = np.zeros(np.shape(top_left)[:-2] + (CANVAS, CANVAS), dtype=np.float32)
    canvas[..., :28, :28] = top_left
    np.maximum(canvas[..., SHIFT:, SHIFT:], bottom_right, out=canvas[..., SHIFT:, SHIFT:])
    return canvas


def bilinear_resize(batch, out_h, out_w):
    """Bilinear resample of [n,h,w] image batch (pixel-center alignment)."""
    n, h, w = batch.shape
    ys = (np.arange(out_h) + 0.5) * (h / out_h) - 0.5
    xs = (np.arange(out_w) + 0.5) * (w / out_w) - 0.5
    y0 = np.clip(np.floor(ys).astype(np.int64), 0, h - 1)
    x0 = np.clip(np.floor(xs).astype(np.int64), 0, w - 1)
    y1 = np.minimum(y0 + 1, h - 1)
    x1 = np.minimum(x0 + 1, w - 1)
    wy = np.clip(ys - y0, 0.0, 1.0).astype(batch.dtype)
    wx = np.clip(xs - x0, 0.0, 1.0).astype(batch.dtype)
    top = batch[:, y0][:, :, x0] * (1 - wx) + batch[:, y0][:, :, x1] * wx
    bot = batch[:, y1][:, :, x0] * (1 - wx) + batch[:, y1][:, :, x1] * wx
    return top * (1 - wy[:, None]) + bot * wy[:, None]


def make_multimnist(images, labels, pair_seed, split):
    """Overlay each digit with a uniformly drawn partner (never itself).

    ``images`` is [n,28,28] in [0,1]; the result keeps index order, labelled
    (label[i], label[partner(i)]) for the tl/br tasks. Deterministic under
    ``pair_seed`` (keyed by split so train/test pairings differ).
    """
    images = np.asarray(images, dtype=np.float32)
    n = images.shape[0]
    if n == 0:
        raise ConfigError("cannot build an overlay set from an empty source")
    if images.shape[1:] != (28, 28):
        raise ConfigError(f"source digits must be 28x28, got {images.shape[1:]}")
    rng = _rng(pair_seed, "pair", split)
    if n == 1:
        partner = np.zeros(1, dtype=np.int64)  # degenerate: self-pairing unavoidable
    else:
        partner = rng.integers(0, n - 1, size=n)
        partner = partner + (partner >= np.arange(n))
    out = np.empty((n, 1, 28, 28), dtype=np.float32)

    def overlay(lo, hi):  # a chunk's canvases and resize temporaries, not the set's
        chunk, first, second = out[lo:hi, 0], images[lo:hi], partner[lo:hi]

        def part(rows):
            chunk[rows] = bilinear_resize(overlay_pair(first[rows], images[second[rows]]), 28, 28)

        return part

    _by_chunk(n, _CHUNK, overlay)
    return MultiMnistSet.whole(
        out,
        labels={
            TASK_TOP_LEFT: np.asarray(labels, dtype=np.int64).copy(),
            TASK_BOTTOM_RIGHT: np.asarray(labels, dtype=np.int64)[partner],
        },
        split=split,
    )


# ---------------------------------------------------------------------------
# splits, sampling, batching


def split_dev(train, dev_size, seed):
    """Disjoint (train', dev) split, deterministic under seed."""
    n = len(train)
    if not 0 < dev_size < n:
        raise ConfigError(f"dev_size {dev_size} must be in (0, {n})")
    perm = _rng(seed, "devsplit").permutation(n)
    dev_idx = np.sort(perm[:dev_size])
    train_idx = np.sort(perm[dev_size:])
    return train.take(train_idx, split="train"), train.take(dev_idx, split="dev")


def sample_fraction(dataset, rho, seed, epoch, key=""):
    """floor(rho*n) indices without replacement, keyed by (seed, epoch, key).

    Each epoch (and each key, typically a task id) draws a fresh subset;
    rho=1 yields the full index range in shuffled order. A rho that would
    draw no index at all is a ConfigError.
    """
    if not 0.0 < rho <= 1.0:
        raise ConfigError(f"rho must be in (0, 1], got {rho}")
    n = len(dataset)
    k = int(np.floor(rho * n))
    if k == 0:
        raise ConfigError(f"rho {rho} samples no example out of {n}")
    return _rng(seed, "sample", epoch, key).permutation(n)[:k]


def batches(dataset, batch_size, seed, epoch):
    """Index arrays for one shuffled pass; all full-size except possibly the last."""
    if batch_size < 1:
        raise ConfigError(f"batch_size must be >= 1, got {batch_size}")
    perm = _rng(seed, "batches", epoch).permutation(len(dataset))
    return chunk_indices(perm, batch_size)


def chunk_indices(order, batch_size):
    order = np.asarray(order)
    return [order[lo : lo + batch_size] for lo in range(0, len(order), batch_size)]


# ---------------------------------------------------------------------------
# on-disk cache for generated sets


def save_cache(dataset, path):
    """Write magic 'MM01', n u64, f32 LE images, then tl/br label bytes.

    The images are gathered and written ``_CHUNK`` at a time, so a subset
    of a large pool never holds a copy of all its images.
    """
    tl = dataset.labels[TASK_TOP_LEFT]
    br = dataset.labels[TASK_BOTTOM_RIGHT]
    with replace_atomically(path, binary=True) as fh:
        fh.write(CACHE_MAGIC)
        fh.write(struct.pack("<Q", len(dataset)))
        for lo in range(0, len(dataset), _CHUNK):
            fh.write(dataset.gather(slice(lo, lo + _CHUNK)).astype("<f4", copy=False))
        fh.write(tl.astype(np.uint8).tobytes())
        fh.write(br.astype(np.uint8).tobytes())


def load_cache(path, split):
    """Read a ``save_cache`` file.

    A bad magic, a short file, or a pixel that is not a number in [0, 1]
    (NaN included) is a ConfigError; the last names the first bad image.
    The pixels are read straight into the set's array, once the file is
    known to hold them all.
    """
    with open(path, "rb") as fh:
        magic = read_exact(fh, 4, path)
        if magic != CACHE_MAGIC:
            raise ConfigError(f"{path}: bad cache magic {magic!r} at offset 0")
        (n,) = struct.unpack("<Q", read_exact(fh, 8, path))
        images = read_array(fh, (n, 1, 28, 28), "<f4", path)
        # min and max propagate NaN, so one reduction each checks every pixel
        if n and not (images.min() >= 0.0 and images.max() <= 1.0):
            flat = images.reshape(n, -1)
            first = int(np.argmax(~((flat >= 0.0) & (flat <= 1.0)).all(axis=1)))
            value = next(v for v in flat[first] if not 0.0 <= v <= 1.0)
            raise ConfigError(f"{path}: image {first} has pixel value {value}, expected a number in [0, 1]")
        tl = np.frombuffer(read_exact(fh, n, path), dtype=np.uint8).astype(np.int64)
        br = np.frombuffer(read_exact(fh, n, path), dtype=np.uint8).astype(np.int64)
    return MultiMnistSet.whole(images, labels={TASK_TOP_LEFT: tl, TASK_BOTTOM_RIGHT: br}, split=split)


def cache_name(split, pair_seed):
    return f"multimnist_{split}_p{pair_seed}.mm01"


# ---------------------------------------------------------------------------
# synthetic digit source

_GLYPHS = {
    0: ("01110", "10001", "10001", "10001", "10001", "10001", "01110"),
    1: ("00100", "01100", "00100", "00100", "00100", "00100", "01110"),
    2: ("01110", "10001", "00001", "00010", "00100", "01000", "11111"),
    3: ("11110", "00001", "00001", "01110", "00001", "00001", "11110"),
    4: ("00010", "00110", "01010", "10010", "11111", "00010", "00010"),
    5: ("11111", "10000", "11110", "00001", "00001", "10001", "01110"),
    6: ("00110", "01000", "10000", "11110", "10001", "10001", "01110"),
    7: ("11111", "00001", "00010", "00100", "01000", "01000", "01000"),
    8: ("01110", "10001", "10001", "01110", "10001", "10001", "01110"),
    9: ("01110", "10001", "10001", "01111", "00001", "00010", "01100"),
}


@lru_cache(maxsize=1)
def _digit_templates():
    """28x28 float templates: coarse glyphs smoothly upscaled and centered.

    Each is zero outside rows 3-23 and columns 6-20; ``_warp`` relies on
    its two outermost rows and columns being zero.
    """
    templates = np.zeros((10, 28, 28), dtype=np.float64)
    for digit, rows in _GLYPHS.items():
        bitmap = np.array([[float(c) for c in row] for row in rows])
        tall = bilinear_resize(bitmap[None].astype(np.float32), 21, 15)[0]
        templates[digit, 3:24, 6:21] = np.clip(tall * 1.6, 0.0, 1.0)
    return templates


# One image's uniform draws as (low, high) bounds, in the order the generator
# takes them from its stream.
_DRAW_LOW, _DRAW_HIGH = np.ascontiguousarray(np.array(
    [(-0.22, 0.22)]  # rotation angle
    + [(-0.18, 0.14)] * 2  # log-scales y, x
    + [(-0.25, 0.25)]  # shear
    + [(-2.0, 2.0)] * 2  # translation y, x
    + [(-1.0, 1.0)] * (2 * 28 * 28)  # displacement field [2, 28, 28]
    + [(18.0, 34.0), (0.3, 0.8), (0.75, 1.25)]  # displacement strength, blur sigma, contrast
).T)
_DRAW_SPAN = _DRAW_HIGH - _DRAW_LOW
# Images rendered at a time: one block of draws, in at most two parts. The
# draws, sample coordinates and blur buffers of a whole set would take many
# times the float32 result; those of 32 digits take about 2.5 MiB, so the
# blurs' many passes over them run mostly in cache. On a 2-core Xeon with 2
# MiB of L2 per core, 128 digits at a time on one thread rendered about 20%
# slower; on 2 shared AMD EPYC cores 64 took as long as 32.
_RENDER_CHUNK = 64
# Images overlaid, or gathered for a cache file, at a time: the canvases and
# resize temporaries are about 20 KiB an image.
_CHUNK = 128
# Fewest images in a part of a split chunk. In smaller parts the threads
# wait for the interpreter lock more than they gain: 4000 digits rendered in
# 0.16 s on two threads in parts of 16, 0.14 s on one thread and 0.11 s on
# two in parts of 32 (2 shared AMD EPYC cores).
_MIN_PART = 32


def synthetic_mnist(n, seed):
    """Seeded digit images [n,28,28] float32 in [0,1] plus labels [n].

    Each sample applies a random affine map (rotation, anisotropic scale,
    shear, translation) composed with an elastic displacement field, then
    blur and contrast jitter, sized so that classifier accuracy lands in
    the handwritten-digit regime. Purely deterministic under (n, seed).

    Draw order: all n labels first, then per image 1577 uniforms in the
    order of ``_DRAW_LOW``: rotation, two log-scales, shear, translation,
    the 2x28x28 displacement field, its strength, blur sigma, contrast.
    Images are rendered in chunks of ``_RENDER_CHUNK`` (64), which bounds
    peak memory. A chunk's draws are one ``rng.random`` block, taken on
    the calling thread in stream order and scaled as
    ``low + (high - low) * u``, the arithmetic of numpy's ``uniform``, so
    stream and values equal one ``uniform`` call per quantity per image.
    ``_by_chunk`` then renders the chunk's parts on the kernels' threads,
    each into its own rows. The displacement blur, the warp and the
    per-image blur mirror scipy's ``gaussian_filter`` and
    ``map_coordinates`` bit for bit, image by image, tested against it, so
    no output depends on the chunk size or the worker count.
    """
    if n < 0:
        raise ConfigError(f"cannot make {n} synthetic digits")
    rng = _rng(seed, "synthetic")
    labels = rng.integers(0, 10, size=n)
    images = np.empty((n, 28, 28), dtype=np.float32)

    def render(lo, hi):
        draws = rng.random((hi - lo, _DRAW_LOW.size))
        draws *= _DRAW_SPAN  # low + (high - low) * u, numpy's own uniform arithmetic
        draws += _DRAW_LOW
        chunk, chunk_labels = images[lo:hi], labels[lo:hi]

        def part(rows):
            chunk[rows] = _render_digits(chunk_labels[rows], draws[rows])

        return part

    _by_chunk(n, _RENDER_CHUNK, render)
    return images, labels.astype(np.int64)


def _by_chunk(n, size, chunk_fn):
    """Work through range(n) ``size`` rows at a time, each chunk split over the kernels' threads.

    For each chunk [lo, hi), in order, ``chunk_fn(lo, hi)`` runs on the
    calling thread and returns a part function. ``autodiff._split`` then
    calls it with slices of range(hi - lo), one per worker but none under
    ``_MIN_PART`` rows, and returns once every part is done, before the
    next chunk starts. So the parts in flight hold one chunk at any worker
    count, and whatever ``chunk_fn`` does (as drawing from a generator)
    happens in chunk order on one thread.
    """
    for lo in range(0, n, size):
        hi = min(lo + size, n)
        parts = autodiff._spans(hi - lo, min(autodiff._WORKERS, (hi - lo) // _MIN_PART))
        autodiff._split(chunk_fn(lo, hi), parts)


def _render_digits(labels, draws):
    """Warped, blurred, contrast-jittered templates [m,28,28] float64 for one part."""
    m = len(labels)
    # contiguous, so exp/cos/sin take the same loop as on one image's values
    theta = np.ascontiguousarray(draws[:, 0])
    sy, sx = np.exp(np.ascontiguousarray(draws[:, 1:3].T))
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([c, -s, s, c], axis=1).reshape(m, 2, 2)
    scale = np.stack([sy, draws[:, 3], np.zeros(m), sx], axis=1).reshape(m, 2, 2)
    inv = np.linalg.inv(rot @ scale)
    grid = np.stack(np.meshgrid(np.arange(28.0), np.arange(28.0), indexing="ij"))
    center = 13.5
    src = (inv @ (grid - center).reshape(2, 28 * 28)).reshape(m, 2, 28, 28)
    src += center
    src -= draws[:, 4:6, None, None]
    # ndimage.gaussian_filter(field, sigma=(0, 0, 3.0, 3.0))
    disp = _separable_blur(draws[:, 6:-3].reshape(m, 2, 28, 28), _DISPLACEMENT_WEIGHTS)
    disp *= draws[:, -3, None, None, None]
    src += disp
    warped = _warp(labels, src)
    blurred = _gaussian_blur(warped, draws[:, -2])
    return np.clip(blurred * draws[:, -1, None, None], 0.0, 1.0)


def _warp(labels, coords):
    """Each image's template sampled at ``coords`` [m,2,28,28] (overwritten), bit for bit
    ``ndimage.map_coordinates(template, coords[i], order=1, mode="constant")``.

    Mirrors scipy's linear spline, tested against it: along each axis the
    weights are ``w0 = 1 - (c - floor(c))`` and ``w1 = 1 - w0``, and the
    value is ``d00*wy0*wx0 + d01*wy0*wx1 + d10*wy1*wx0 + d11*wy1*wx1``,
    each product taken left to right and the sum in that order. A point
    outside [0, 27] on either axis is 0 in scipy's ``constant`` mode. The
    templates are zero on their two outermost rows and columns, so
    clamping the base pixel to [0, 26] along each axis reads only zeros
    for such a point and gives that 0 too, and one gather from all ten
    templates serves the whole part.
    """
    flat = _digit_templates().ravel()
    wy0, wx0 = coords[:, 0], coords[:, 1]  # the coordinates until overwritten
    row, col = np.floor(wy0), np.floor(wx0)
    wy0 -= row
    np.subtract(1.0, wy0, out=wy0)
    wx0 -= col
    np.subtract(1.0, wx0, out=wx0)
    np.clip(row, 0, 26, out=row)
    np.clip(col, 0, 26, out=col)
    row *= 28
    row += col
    row += (28 * 28 * labels)[:, None, None]
    index = row.astype(np.intp)  # of each point's top-left pixel in the flat templates
    wy1 = np.subtract(1.0, wy0, out=row)
    wx1 = np.subtract(1.0, wx0, out=col)
    out = flat.take(index)
    out *= wy0
    out *= wx0
    term = np.empty_like(out)
    for offset, wy, wx in ((1, wy0, wx1), (28, wy1, wx0), (29, wy1, wx1)):
        np.take(flat[offset:], index, out=term)
        term *= wy
        term *= wx
        out += term
    return out


def _gaussian_weights(sigmas, r):
    """scipy's ``_gaussian_kernel1d`` for each sigma at radius r: [r + 1, k], centre tap first.

    ``exp(-x^2 / 2 sigma^2)`` over its sum; the weights are symmetric, so
    offsets 1..r stand for -1..-r as well.
    """
    x = np.arange(-r, r + 1)
    phi = np.exp((-0.5 / (sigmas * sigmas))[:, None] * x**2)
    return (phi / phi.sum(axis=1, keepdims=True))[:, r:].T


# scipy's truncate 4 at sigma 3: radius int(4 * 3 + 0.5) = 12
_DISPLACEMENT_WEIGHTS = _gaussian_weights(np.array([3.0]), 12)


def _gaussian_blur(batch, sigmas):
    """``ndimage.gaussian_filter(batch[i], sigmas[i])`` for each image, bit for bit.

    Mirrors scipy's default (truncate 4, ``reflect`` borders), tested
    against it: the kernel radius is ``int(4 * sigma + 0.5)``, and images
    sharing a radius are filtered together.
    """
    out = np.empty_like(batch)
    radii = (4.0 * sigmas + 0.5).astype(np.int64)
    for r in np.unique(radii):
        idx = np.flatnonzero(radii == r)
        out[idx] = _separable_blur(batch[idx], _gaussian_weights(sigmas[idx], r))
    return out


def _separable_blur(images, weights):
    """Images [..., h, w] correlated along h, then along w, as scipy's ``gaussian_filter`` does.

    ``weights`` [r + 1, ...] holds the taps from the centre out and
    broadcasts against the images' leading axes. Both passes run with the
    image axes first and the leading axes innermost, so every tap is one
    ufunc call over contiguous memory.
    """
    rows = _reflect_correlate(images.T.swapaxes(0, 1), weights)
    cols = _reflect_correlate(rows.swapaxes(0, 1), weights)
    out = np.empty(images.shape)
    out[...] = cols.T
    return out


def _reflect_correlate(x, weights):
    """scipy's symmetric ``correlate1d`` along axis 0 with ``reflect`` borders, for a radius up to ``len(x)``.

    Each output is the centre term plus the pairs ``(left + right) *
    weight`` from the outermost inward, in scipy's order and rounding.
    """
    r = len(weights) - 1
    n = len(x)
    padded = _empty_aligned((n + 2 * r,) + x.shape[1:])
    padded[r : r + n] = x
    padded[:r] = padded[2 * r - 1 : r - 1 : -1]  # c b a | a b c ... x y z | z y x
    padded[r + n :] = padded[r + n - 1 : n - 1 : -1]
    out = np.multiply(padded[r : r + n], weights[0], out=_empty_aligned(x.shape))
    pair = _empty_aligned(x.shape)
    for j in range(r, 0, -1):
        np.add(padded[r - j : r - j + n], padded[r + j : r + j + n], out=pair)
        pair *= weights[j]
        out += pair
    return out


def _empty_aligned(shape):
    """An uninitialised float64 array that starts on a 64-byte boundary.

    An AVX-512 store that straddles two cache lines is slow: on a Xeon
    with AVX-512, a contiguous float64 ``np.add`` into a buffer 16 bytes
    off a cache line took 0.75 ns an element, against 0.41 ns aligned.
    """
    size = math.prod(shape)
    raw = np.empty(size + 7)
    start = -raw.__array_interface__["data"][0] % 64 // 8
    return raw[start : start + size].reshape(shape)
