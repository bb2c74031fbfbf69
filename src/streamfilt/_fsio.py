"""Atomic file writing helpers, and the one CSV report format.

Writes go to a temporary file in the destination directory followed by
os.replace, so a reader never observes a half-written file. Every CSV the
package writes starts with CSV_VERSION_LINE, then a header line.
"""

from __future__ import annotations

import os
import tempfile
from contextlib import contextmanager
from typing import BinaryIO, Iterator

CSV_VERSION_LINE = "# streamfilt-bench v1"


@contextmanager
def atomic_open(path: str | os.PathLike[str]) -> Iterator[BinaryIO]:
    """A binary file handle whose contents replace path when the block ends.

    On any exception the temporary file is removed and path is untouched.
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", suffix="~")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str | os.PathLike[str], data) -> None:
    """Write data, any C-contiguous buffer (bytes or a numpy array, say), as is."""
    with atomic_open(path) as fh:
        fh.write(data)


def atomic_write_text(path: str | os.PathLike[str], text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_csv(path: str | os.PathLike[str], header: str, rows) -> None:
    """Write CSV_VERSION_LINE, header and rows, each an already joined line."""
    atomic_write_text(path, "\n".join([CSV_VERSION_LINE, header, *rows]) + "\n")
