"""The one way this package replaces a file on disk.

Every persistent writer — verdict cache, length store, job journal results,
trace and metrics exports, the heartbeat file, file-queue spool messages —
publishes through :func:`atomic_write`, so a reader (or a process that
crashed mid-write) only ever sees the old file or the complete new one.
"""

from __future__ import annotations

import os
import tempfile
from typing import Callable, Optional, Union


def atomic_write(
    path: Union[str, "os.PathLike[str]"],
    data: Union[str, bytes],
    *,
    fsync: bool = False,
    before_replace: Optional[Callable[[str], None]] = None,
) -> None:
    """Replace *path* with *data* (text is written as UTF-8).

    The bytes go to a sibling ``<name>…tmp`` file first — the suffix the
    file-queue sweeper ages out — which is fsynced when *fsync* is set and
    then published with :func:`os.replace`.  *before_replace* receives the
    temp file's path between the write and the publish (the verdict cache's
    ``cache.flush`` chaos hook point).  On any failure the temp file is
    removed and the error propagates; the parent directory is created if
    missing.
    """
    path = os.fspath(path)
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        prefix=os.path.basename(path), suffix=".tmp", dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(data.encode("utf-8") if isinstance(data, str) else data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        if before_replace is not None:
            before_replace(tmp_name)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise
