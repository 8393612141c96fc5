"""Whole-file writes that never leave a partial file under the final name."""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


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
