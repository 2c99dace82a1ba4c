"""Artifact files that are either the old bytes or the new ones, never half.

``atomic_write`` writes to a temporary file in the target's directory and then
moves it over the target with ``os.replace``, which is atomic within one file
system. A writer that fails, or a process that dies, before the move leaves
the target as it was.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path, text: bool = False):
    """Yield a file object (binary, or UTF-8 text with ``text``) that replaces
    ``path`` when the block exits cleanly; on an error the temporary file is
    removed and ``path`` is left untouched."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w" if text else "wb", encoding="utf-8" if text else None) as fh:
            yield fh
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
