"""Whole-file writes: a file that rirlab writes is either its previous
version or the complete new one, never a part.

Each write goes to a temporary file in the target's directory, which then
replaces the target with os.replace, an atomic rename on POSIX and Windows.
A kill, a full disk or an error while writing leaves the previous file as it
was. This guards against a failed or interrupted process, not a power loss:
nothing is flushed to the disk before the rename.
"""

from __future__ import annotations

import os
import threading
from contextlib import contextmanager
from pathlib import Path


@contextmanager
def atomic_write(path: str | Path, mode: str = "w"):
    """open(path, mode) for writing, through a temporary file beside path
    that replaces it when the block exits cleanly. If the block raises, the
    temporary file is removed, path is left untouched, and the error
    propagates. The temporary name holds the process and thread ids, so
    concurrent writers of one path never share a temporary file."""
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        with open(tmp, mode) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
