"""Storage backends behind the :class:`StorageFS` seam.

:class:`~repro.storage.faults.StorageFS` started life as a test seam;
this module promotes it into the real backend abstraction.  Everything
above the seam — framed WAL records, checkpoint generation fencing,
salvage/quarantine, retry/degraded-mode, replication shipping — is
expressed purely in the byte-stream primitives, so a backend only has
to implement those primitives faithfully and the whole durability
stack (and its crash matrix) comes along for free.

Two backends ship: POSIX files and sqlite.  Where they differ in what
the primitives *already* guarantee, two class-level flags let the
durability layer skip redundant work instead of branching on types:

``durable_rename``
    ``replace`` is durable by itself; the post-rename directory fsync
    is unnecessary and :func:`~repro.storage.framing.atomic_write_bytes`
    skips it.
``durable_writes``
    Every mutating primitive commits durably before returning; fsync
    barriers are no-ops and write reordering is impossible.

Backend URLs
------------
Every open surface (:meth:`repro.api.Objectbase.open`, ``repro serve``,
``repro recover``, replication) accepts a backend URL instead of a bare
path:

* ``file:/var/lib/repro/schema.wal`` (or just the path) — POSIX files;
* ``sqlite:/var/lib/repro/schema.db`` — WAL frames as rows, checkpoints
  as blobs, inside one sqlite database.

:func:`resolve_storage_url` returns the backend plus the *logical* path
the journal should use inside it and the *physical* on-disk anchor
(where sidecar files like the primary lease live).
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from ..core.errors import JournalError
from .faults import RealFS, StorageFS

__all__ = [
    "StorageBackend",
    "FileBackend",
    "StorageTarget",
    "resolve_storage_url",
    "storage_physical_path",
]


class StorageBackend(StorageFS):
    """A production storage substrate: :class:`StorageFS` primitives
    plus a lifecycle.

    Subclass contract (the conformance suite in
    ``tests/storage/test_crash_matrix.py`` / ``test_recovery_modes.py``
    checks all of it — see ``docs/storage.md``):

    * the ten byte-stream primitives with POSIX-file semantics
      (``unlink`` tolerates a missing file; ``read_bytes``/``size``/
      ``truncate``/``replace`` raise :class:`FileNotFoundError` family
      errors on missing sources);
    * transient substrate failures surface as :class:`OSError` so the
      retry layer (:mod:`repro.storage.reliability`) absorbs them;
    * the ``durable_rename``/``durable_writes`` flags inherited from
      :class:`StorageFS` describe what the substrate already guarantees;
    * :meth:`close` releases substrate handles (idempotent).
    """

    def close(self) -> None:
        """Release substrate resources; further use is undefined."""


class FileBackend(RealFS, StorageBackend):
    """The POSIX-file backend: :class:`RealFS` as a :class:`StorageBackend`.

    Durability is the classic recipe — write, fsync the file, rename,
    fsync the directory — so ``durable_rename`` stays false and the
    checkpoint writer performs the directory fsync itself.
    """


@dataclass(frozen=True)
class StorageTarget:
    """A resolved backend URL.

    ``path`` is the logical journal path *inside* the backend (the WAL;
    the checkpoint rides next to it via suffixing).  ``physical`` is the
    on-disk anchor — the WAL file or the sqlite database file — where
    path-shaped sidecars (the primary lease) and operator tooling point.
    """

    fs: StorageFS
    path: Path
    physical: Path
    url: str


# -- URL resolution -----------------------------------------------------

_SCHEME_RE = re.compile(r"^([A-Za-z][A-Za-z0-9+.-]*):")

def _file_target(rest: str, url: str) -> StorageTarget:
    path = Path(rest)
    return StorageTarget(fs=FileBackend(), path=path, physical=path, url=url)


def _sqlite_target(rest: str, url: str) -> StorageTarget:
    from .sqlite_backend import SqliteBackend

    database = Path(rest)
    return StorageTarget(
        fs=SqliteBackend(database),
        path=Path("wal"),
        physical=database,
        url=url,
    )


#: scheme -> factory(rest-of-url, full-url) -> StorageTarget
_FACTORIES: dict[str, Callable[[str, str], StorageTarget]] = {
    "file": _file_target,
    "sqlite": _sqlite_target,
}


def _split_storage_url(db: str | Path) -> tuple[str, str] | None:
    """``(scheme, rest)`` for a backend URL, or ``None`` for a bare path.

    A single-letter "scheme" is treated as a path (Windows drive
    letters), and an unknown scheme is a typed error rather than a
    surprise relative directory.  Pure parsing — no backend is
    constructed and nothing on disk is touched.
    """
    raw = str(db)
    match = _SCHEME_RE.match(raw) if isinstance(db, str) else None
    if match is None or len(match.group(1)) == 1:
        return None
    scheme = match.group(1).lower()
    if scheme not in _FACTORIES:
        raise JournalError(
            f"unknown storage backend scheme {scheme!r} in {raw!r} "
            f"(expected one of: {', '.join(sorted(_FACTORIES))})"
        )
    rest = raw[match.end():]
    if rest.startswith("//"):
        rest = rest[2:]
    if not rest:
        raise JournalError(f"storage URL {raw!r} names no path")
    return scheme, rest


def storage_physical_path(db: str | Path) -> Path:
    """The on-disk anchor of a database location, **without** opening it.

    Unlike :func:`resolve_storage_url` — which constructs a live
    backend, opening (and creating) a sqlite database as a side
    effect — this is pure parsing.  It is what path-shaped sidecar
    placement (the primary lease) and help text must use *before*
    ownership of the store is established: a failover candidate
    anchoring its lease must not mutate a store it does not yet own.

    For both schemes the anchor is the URL's path part (the WAL file,
    the sqlite database file).
    """
    split = _split_storage_url(db)
    if split is None:
        return Path(db)
    _, rest = split
    return Path(rest)


def resolve_storage_url(
    db: str | Path, *, fs: StorageFS | None = None
) -> StorageTarget:
    """Resolve a database location (path or backend URL) to a target.

    An explicit ``fs`` wins (tests injecting fault layers); a bare path
    resolves to the :class:`FileBackend`; ``scheme:rest`` dispatches to
    that scheme's backend.  Resolving **constructs** the backend
    (a sqlite connection opened) — callers that only need
    the anchor path must use :func:`storage_physical_path` instead.
    """
    raw = str(db)
    if fs is not None:
        path = Path(db)
        return StorageTarget(fs=fs, path=path, physical=path, url=raw)
    split = _split_storage_url(db)
    if split is None:
        path = Path(db)
        return StorageTarget(
            fs=FileBackend(), path=path, physical=path, url=f"file:{path}"
        )
    scheme, rest = split
    return _FACTORIES[scheme](rest, raw)
