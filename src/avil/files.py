"""File I/O shared by every reader and writer.

Every read of the IDX, cache and checkpoint readers is size-checked by
one test, through ``read_exact``, which returns bytes, or ``read_array``,
which reads straight into a new array; ``read_text`` reads every text
file a user hands in. ``replace_atomically`` is the one whole-file write:
it never leaves a partial file under the final name.
"""

from __future__ import annotations

import math
import os
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from .errors import ConfigError


def read_exact(fh, count, path):
    """The next ``count`` bytes of the seekable binary file ``fh``.

    ``count`` is compared with the bytes left before anything is read, so a
    corrupt size in a header fails without reading or allocating that size.
    A short file is a ConfigError naming ``path``, the offset where the file
    ends and the offset of the field that was wanted.
    """
    _check_left(fh, count, path)
    return fh.read(count)


def read_array(fh, shape, dtype, path):
    """A new array of ``shape`` and ``dtype`` read from the next bytes of ``fh``.

    The size is checked as ``read_exact`` checks it, before the array is
    made, and the bytes are read straight into the array.
    """
    dtype = np.dtype(dtype)
    _check_left(fh, math.prod(shape) * dtype.itemsize, path)
    array = np.empty(shape, dtype=dtype)
    fh.readinto(array.reshape(-1).view(np.uint8))
    return array


def read_text(path):
    """The UTF-8 text of ``path``; a file that is not UTF-8 is a ConfigError naming the first bad byte."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _check_left(fh, count, path):
    """A ConfigError unless ``fh`` holds ``count`` more bytes (see ``read_exact``)."""
    offset = fh.tell()
    end = fh.seek(0, os.SEEK_END)
    fh.seek(offset)
    if count > end - offset:
        raise ConfigError(
            f"{path}: truncated at offset {end} ({count} bytes wanted from offset {offset}, {end - offset} left)"
        )


@contextmanager
def replace_atomically(path, binary=False):
    """Write to ``<path>.tmp``, then rename it over ``path`` in one step.

    Yields the open file: UTF-8 text with ``\\n`` line endings, or bytes if
    ``binary``. If the block raises, the temporary file is removed and
    ``path`` keeps its previous content, or stays absent. The rename guards
    against an interrupted process, not against power loss (no fsync).
    """
    tmp = Path(f"{path}.tmp")
    text = {} if binary else {"encoding": "utf-8", "newline": "\n"}
    try:
        with open(tmp, "wb" if binary else "w", **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
