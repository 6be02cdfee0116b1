"""Turn a database location (``--db``) into the path of a store's WAL.

There is one storage substrate: ordinary files, reached through the
:class:`~repro.storage.faults.StorageFS` seam (:class:`RealFS` in
production, :class:`FaultyFS` under fault injection).  A location is a
path; ``file:PATH`` is kept as an alias for it.  The checkpoint and
every sidecar (the primary lease, the ``.corrupt`` quarantine) sit next
to that path.
"""

from __future__ import annotations

import re
from pathlib import Path

from ..core.errors import JournalError

__all__ = ["storage_path"]

_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*):")


def storage_path(db: str | Path) -> Path:
    """The WAL path a database location names.  Pure parsing: nothing
    on disk is touched.

    A bare path (or a :class:`Path`) is itself; ``file:PATH`` and
    ``file://PATH`` give ``PATH``; a single-letter "scheme" is a Windows
    drive letter, so ``C:/data/wal`` stays a path.  Any other scheme is
    a typed :class:`JournalError`, never a surprise relative directory.
    """
    if not isinstance(db, str):
        return Path(db)
    match = _SCHEME_RE.match(db)
    if match is None or len(match.group(1)) == 1:
        return Path(db)
    scheme = match.group(1).lower()
    if scheme == "sqlite":
        raise JournalError(
            f"the sqlite storage backend was removed; {db!r} cannot be "
            f"opened (give a file path or file:PATH)"
        )
    if scheme != "file":
        raise JournalError(
            f"unknown storage backend scheme {scheme!r} in {db!r} "
            f"(expected a path or file:PATH)"
        )
    rest = db[match.end():]
    if rest.startswith("//"):
        rest = rest[2:]
    if not rest:
        raise JournalError(f"storage URL {db!r} names no path")
    return Path(rest)
