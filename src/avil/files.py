"""File I/O shared by every reader and writer.

``read_exact`` is the one size-checked read behind the IDX, cache and
checkpoint readers. ``replace_atomically`` is the one whole-file write: it
never leaves a partial file under the final name.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path

from .errors import ConfigError


def read_exact(fh, count, path):
    """The next ``count`` bytes of the seekable binary file ``fh``.

    ``count`` is compared with the bytes left before anything is read, so a
    corrupt size in a header fails without reading or allocating that size.
    A short file is a ConfigError naming ``path``, the offset where the file
    ends and the offset of the field that was wanted.
    """
    offset = fh.tell()
    end = fh.seek(0, os.SEEK_END)
    fh.seek(offset)
    if count > end - offset:
        raise ConfigError(
            f"{path}: truncated at offset {end} ({count} bytes wanted from offset {offset}, {end - offset} left)"
        )
    return fh.read(count)


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
