"""The sqlite storage backend: WAL frames as rows, checkpoints as blobs.

One sqlite database hosts any number of logical byte streams, keyed by
their logical path.  Each stream is a base blob (whole-file writes —
checkpoints, truncations) plus an ordered run of appended frames (WAL
records), so the hot path — append one framed record — is a single-row
transactional insert, and ``read_bytes`` reassembles the stream as
``blob + frames`` without rewriting history.

Semantics the durability layer leans on:

* **real transactional rename** — ``replace`` re-keys the source rows
  and deletes the destination inside one ``BEGIN IMMEDIATE``
  transaction; a crash leaves either the old or the new binding.
* **durable commits** — ``PRAGMA synchronous=FULL``: every commit is on
  stable storage before it returns, so ``fsync_file``/``fsync_dir`` are
  no-ops and ``durable_rename``/``durable_writes`` are true.  The
  fsync every WAL append and checkpoint issues is subsumed by the
  commit.
* **busy/locked mapped to the retry layer** — sqlite's
  ``database is locked`` / ``busy`` conditions surface as
  ``OSError(EBUSY)``, which is in the retryable family
  (:data:`repro.storage.reliability.RETRYABLE`), so the existing
  :class:`~repro.storage.reliability.RetryPolicy` on the WAL append
  path absorbs lock contention exactly as it absorbs EIO blips.  Other
  sqlite errors surface as ``OSError(EIO)`` and ride the same
  retry-then-degrade path.

The backend-shaped fault the crash matrix adds
(``FaultyFS(backend_torn=True)``) is :meth:`simulate_torn_append`: half
the payload inserted in a transaction that is never committed — the
"process" dies with the write in flight.  sqlite's journal must make
the partial commit invisible on the next open; the conformance suite
proves the recovered state is exactly an acknowledged prefix.
"""

from __future__ import annotations

import errno
import sqlite3
import threading
from contextlib import contextmanager
from pathlib import Path

from ..obs.metrics import REGISTRY
from .backend import StorageBackend

__all__ = ["SqliteBackend"]

_BUSY = REGISTRY.counter(
    "repro_sqlite_busy_total",
    "sqlite busy/locked conditions surfaced as retryable storage faults",
)

_SCHEMA = """
CREATE TABLE IF NOT EXISTS blobs (
    path TEXT PRIMARY KEY,
    data BLOB NOT NULL
);
CREATE TABLE IF NOT EXISTS frames (
    path TEXT NOT NULL,
    seq  INTEGER NOT NULL,
    data BLOB NOT NULL,
    PRIMARY KEY (path, seq)
);
"""

_NEXT_SEQ = "(SELECT COALESCE(MAX(seq), -1) + 1 FROM frames WHERE path = ?)"


class SqliteBackend(StorageBackend):
    """Logical byte streams inside one sqlite database file."""

    durable_rename = True
    durable_writes = True

    def __init__(
        self,
        database: str | Path,
        *,
        busy_timeout: float = 5.0,
        synchronous: str = "FULL",
    ) -> None:
        self.database = Path(database)
        if str(self.database.parent) not in ("", "."):
            self.database.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._closed = False
        self._conn = sqlite3.connect(
            str(self.database),
            timeout=busy_timeout,
            check_same_thread=False,
            isolation_level=None,  # autocommit; we issue BEGIN ourselves
        )
        try:
            self._conn.execute(f"PRAGMA synchronous={synchronous}")
            self._conn.executescript(_SCHEMA)
        except sqlite3.Error as exc:
            self._conn.close()
            self._closed = True
            self._raise_mapped(exc)

    # -- error mapping --------------------------------------------------

    def _raise_mapped(self, exc: sqlite3.Error) -> None:
        """Surface sqlite failures in the retryable :class:`OSError`
        family (busy/locked as EBUSY, everything else as EIO)."""
        message = str(exc).lower()
        if isinstance(exc, sqlite3.OperationalError) and (
            "locked" in message or "busy" in message
        ):
            _BUSY.inc()
            raise OSError(
                errno.EBUSY, f"sqlite database busy: {exc}"
            ) from exc
        raise OSError(errno.EIO, f"sqlite backend failure: {exc}") from exc

    def _rollback_quietly(self) -> None:
        """Best-effort ROLLBACK that never masks the original failure.

        Leaving the connection inside an open transaction would make
        every later ``BEGIN IMMEDIATE`` fail with "cannot start a
        transaction within a transaction" — one transient fault
        permanently wedging the backend.  A ROLLBACK that itself fails
        (connection dead, disk gone) is swallowed: the caller is about
        to surface the original error, and the retry layer will probe
        the connection again.
        """
        try:
            self._conn.execute("ROLLBACK")
        except sqlite3.Error:
            pass

    @contextmanager
    def transaction(self):
        """One atomic unit over the primitives."""
        with self._lock:
            if self._closed:
                raise OSError(
                    errno.EIO, f"sqlite backend {self.database} is closed"
                )
            try:
                self._conn.execute("BEGIN IMMEDIATE")
            except sqlite3.Error as exc:
                self._raise_mapped(exc)
            try:
                yield self._conn
            except sqlite3.Error as exc:
                self._rollback_quietly()
                self._raise_mapped(exc)
            except BaseException:
                self._rollback_quietly()
                raise
            else:
                try:
                    self._conn.execute("COMMIT")
                except sqlite3.Error as exc:
                    self._rollback_quietly()
                    self._raise_mapped(exc)

    # -- helpers --------------------------------------------------------

    @staticmethod
    def _key(path: Path) -> str:
        return str(path)

    def _assembled(self, key: str) -> bytes | None:
        """The stream's bytes (``blob + ordered frames``), or None."""
        row = self._conn.execute(
            "SELECT data FROM blobs WHERE path = ?", (key,)
        ).fetchone()
        frames = self._conn.execute(
            "SELECT data FROM frames WHERE path = ? ORDER BY seq", (key,)
        ).fetchall()
        if row is None and not frames:
            return None
        base = bytes(row[0]) if row is not None else b""
        return base + b"".join(bytes(f[0]) for f in frames)

    def _set_blob(self, key: str, data: bytes) -> None:
        self._conn.execute("DELETE FROM frames WHERE path = ?", (key,))
        self._conn.execute(
            "INSERT OR REPLACE INTO blobs (path, data) VALUES (?, ?)",
            (key, data),
        )

    # -- StorageFS primitives -------------------------------------------

    def exists(self, path: Path) -> bool:
        key = self._key(path)
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT 1 FROM blobs WHERE path = ? "
                    "UNION ALL SELECT 1 FROM frames WHERE path = ? LIMIT 1",
                    (key, key),
                ).fetchone()
            except sqlite3.Error as exc:
                self._raise_mapped(exc)
            return row is not None

    def size(self, path: Path) -> int:
        key = self._key(path)
        with self._lock:
            try:
                row = self._conn.execute(
                    "SELECT "
                    "(SELECT length(data) FROM blobs WHERE path = ?1), "
                    "(SELECT SUM(length(data)) FROM frames WHERE path = ?1)",
                    (key,),
                ).fetchone()
            except sqlite3.Error as exc:
                self._raise_mapped(exc)
        blob_len, frame_len = row
        if blob_len is None and frame_len is None:
            raise FileNotFoundError(
                errno.ENOENT, "no such stream in sqlite backend", str(path)
            )
        return (blob_len or 0) + (frame_len or 0)

    def read_bytes(self, path: Path) -> bytes:
        key = self._key(path)
        with self._lock:
            try:
                data = self._assembled(key)
            except sqlite3.Error as exc:
                self._raise_mapped(exc)
        if data is None:
            raise FileNotFoundError(
                errno.ENOENT, "no such stream in sqlite backend", str(path)
            )
        return data

    def append_bytes(self, path: Path, data: bytes) -> None:
        key = self._key(path)
        with self.transaction() as conn:
            conn.execute(
                f"INSERT INTO frames (path, seq, data) "
                f"VALUES (?, {_NEXT_SEQ}, ?)",
                (key, key, data),
            )

    def write_bytes(self, path: Path, data: bytes) -> None:
        key = self._key(path)
        with self.transaction():
            self._set_blob(key, data)

    def replace(self, src: Path, dst: Path) -> None:
        src_key, dst_key = self._key(src), self._key(dst)
        with self.transaction() as conn:
            present = conn.execute(
                "SELECT 1 FROM blobs WHERE path = ? "
                "UNION ALL SELECT 1 FROM frames WHERE path = ? LIMIT 1",
                (src_key, src_key),
            ).fetchone()
            if present is None:
                raise FileNotFoundError(
                    errno.ENOENT, "no such stream in sqlite backend",
                    str(src),
                )
            conn.execute("DELETE FROM blobs WHERE path = ?", (dst_key,))
            conn.execute("DELETE FROM frames WHERE path = ?", (dst_key,))
            conn.execute(
                "UPDATE blobs SET path = ? WHERE path = ?",
                (dst_key, src_key),
            )
            conn.execute(
                "UPDATE frames SET path = ? WHERE path = ?",
                (dst_key, src_key),
            )

    def truncate(self, path: Path, size: int) -> None:
        key = self._key(path)
        with self.transaction():
            data = self._assembled(key)
            if data is None:
                raise FileNotFoundError(
                    errno.ENOENT, "no such stream in sqlite backend",
                    str(path),
                )
            if size > len(data):
                data = data.ljust(size, b"\x00")
            self._set_blob(key, data[:size])

    def unlink(self, path: Path) -> None:
        key = self._key(path)
        with self.transaction() as conn:
            conn.execute("DELETE FROM blobs WHERE path = ?", (key,))
            conn.execute("DELETE FROM frames WHERE path = ?", (key,))

    def fsync_file(self, path: Path) -> None:
        """No-op: synchronous=FULL makes every commit durable."""

    def fsync_dir(self, path: Path) -> None:
        """No-op: rename durability is the transaction's."""

    def mkdirs(self, path: Path) -> None:
        """No-op: streams are rows; there are no directories to make."""

    def close(self) -> None:
        with self._lock:
            if not self._closed:
                self._conn.close()
                self._closed = True

    # -- backend-shaped fault hook --------------------------------------

    def simulate_torn_append(self, path: Path, data: bytes) -> None:
        """The mid-transaction crash state: half the payload inserted,
        the transaction never committed, the connection dead.

        sqlite's journal discards the in-flight transaction, so the next
        open must see *no trace* of the partial commit — the invariant
        the ``append-backend-torn`` conformance point asserts.
        """
        key = self._key(path)
        with self._lock:
            if self._closed:
                return
            self._conn.execute("BEGIN IMMEDIATE")
            self._conn.execute(
                f"INSERT INTO frames (path, seq, data) "
                f"VALUES (?, {_NEXT_SEQ}, ?)",
                (key, key, data[: len(data) // 2]),
            )
            # The power cut: abandon the connection with the transaction
            # open; sqlite rolls it back, exactly as journal recovery
            # would after a real crash.
            self._conn.close()
            self._closed = True
