"""Unit tests for the storage backend abstraction itself.

The crash matrix (``test_crash_matrix.py``) proves the backends honor
the recovery contract; this file covers the seams around it: URL
resolution, the durability flags, the byte-stream conformance of each
primitive, and sqlite's busy-retry mapping and transactional rename.
"""

import errno
import threading

import pytest

from repro.core.errors import JournalError
from repro.storage import (
    FileBackend,
    RealFS,
    SqliteBackend,
    atomic_write_bytes,
    resolve_storage_url,
    storage_physical_path,
)
from repro.storage.reliability import DegradedLatch, RetryPolicy, append_record


class TestResolveStorageUrl:
    def test_bare_path_is_the_file_backend(self, tmp_path):
        target = resolve_storage_url(tmp_path / "wal")
        assert isinstance(target.fs, FileBackend)
        assert target.path == tmp_path / "wal"
        assert target.physical == tmp_path / "wal"

    def test_file_scheme(self, tmp_path):
        target = resolve_storage_url(f"file:{tmp_path}/wal")
        assert isinstance(target.fs, FileBackend)
        assert target.path == tmp_path / "wal"

    def test_single_letter_scheme_is_a_windows_drive(self):
        # "C:\\data\\wal" must parse as a path, not a backend URL.
        target = resolve_storage_url("C:/data/wal")
        assert isinstance(target.fs, FileBackend)

    def test_sqlite_scheme(self, tmp_path):
        target = resolve_storage_url(f"sqlite:{tmp_path}/store.sqlite")
        assert isinstance(target.fs, SqliteBackend)
        assert str(target.path) == "wal"
        assert target.physical == tmp_path / "store.sqlite"
        target.fs.close()

    def test_unknown_scheme_is_a_typed_error(self):
        with pytest.raises(JournalError, match="unknown storage backend"):
            resolve_storage_url("redis://localhost/0")

    def test_empty_rest_is_rejected(self):
        with pytest.raises(JournalError):
            resolve_storage_url("sqlite:")

    def test_explicit_fs_always_wins(self, tmp_path):
        # Fault injection and pre-built backends pass fs directly; the
        # path is then used verbatim, no URL resolution.
        fs = RealFS()
        target = resolve_storage_url(tmp_path / "wal", fs=fs)
        assert target.fs is fs
        assert target.path == tmp_path / "wal"


class TestStoragePhysicalPath:
    """The side-effect-free anchor resolver (lease placement runs this
    *before* ownership is established, so it must not touch the store)."""

    def test_all_schemes_anchor_at_the_url_path(self, tmp_path):
        assert storage_physical_path(tmp_path / "wal") == tmp_path / "wal"
        assert (
            storage_physical_path(f"file:{tmp_path}/wal")
            == tmp_path / "wal"
        )
        assert (
            storage_physical_path(f"sqlite:{tmp_path}/store.sqlite")
            == tmp_path / "store.sqlite"
        )

    def test_resolution_is_pure(self, tmp_path):
        """No database created — a failover candidate anchoring its
        lease must not mutate a store it does not own
        (resolve_storage_url would create it)."""
        storage_physical_path(f"sqlite:{tmp_path}/sub/store.sqlite")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_scheme_is_a_typed_error(self):
        with pytest.raises(JournalError, match="unknown storage backend"):
            storage_physical_path("redis://localhost/0")

    def test_windows_drive_is_a_path(self):
        assert str(storage_physical_path("C:/data/wal")) == "C:/data/wal"


class TestCapabilityProbes:
    def test_file_backend(self):
        fs = FileBackend()
        assert not fs.durable_rename
        assert not fs.durable_writes

    def test_sqlite_backend(self, tmp_path):
        fs = SqliteBackend(tmp_path / "db")
        assert fs.durable_rename
        assert fs.durable_writes
        fs.close()


class TestPrimitiveConformance:
    """Byte-stream semantics every backend must share (backend fixture:
    the whole class runs once per backend)."""

    def test_append_read_size_exists(self, backend, tmp_path):
        fs = backend.fresh()
        path = tmp_path / "stream"
        assert not fs.exists(path)
        fs.append_bytes(path, b"one\n")
        fs.append_bytes(path, b"two\n")
        assert fs.exists(path)
        assert fs.read_bytes(path) == b"one\ntwo\n"
        assert fs.size(path) == 8
        # A restarted instance sees the same bytes.
        assert backend.fresh().read_bytes(path) == b"one\ntwo\n"

    def test_write_replaces_whole_stream(self, backend, tmp_path):
        fs = backend.fresh()
        path = tmp_path / "stream"
        fs.append_bytes(path, b"old content")
        fs.write_bytes(path, b"new")
        assert fs.read_bytes(path) == b"new"

    def test_truncate_cuts_to_prefix(self, backend, tmp_path):
        fs = backend.fresh()
        path = tmp_path / "stream"
        fs.write_bytes(path, b"0123456789")
        fs.truncate(path, 4)
        assert fs.read_bytes(path) == b"0123"
        assert fs.size(path) == 4

    def test_replace_moves_atomically(self, backend, tmp_path):
        fs = backend.fresh()
        src, dst = tmp_path / "src", tmp_path / "dst"
        fs.write_bytes(src, b"payload")
        fs.write_bytes(dst, b"stale")
        fs.replace(src, dst)
        assert fs.read_bytes(dst) == b"payload"
        assert not fs.exists(src)

    def test_unlink_is_idempotent(self, backend, tmp_path):
        fs = backend.fresh()
        path = tmp_path / "stream"
        fs.write_bytes(path, b"x")
        fs.unlink(path)
        assert not fs.exists(path)
        fs.unlink(path)  # missing_ok semantics

    def test_size_of_missing_stream_raises(self, backend, tmp_path):
        fs = backend.fresh()
        with pytest.raises(FileNotFoundError):
            fs.size(tmp_path / "nope")

    def test_atomic_write_bytes_lands_whole(self, backend, tmp_path):
        fs = backend.fresh()
        path = tmp_path / "doc"
        atomic_write_bytes(fs, path, b"v1")
        atomic_write_bytes(fs, path, b"v2")
        assert fs.read_bytes(path) == b"v2"
        # No temp residue survives a successful publish.
        assert not fs.exists(path.with_suffix(path.suffix + ".tmp"))


class TestSqliteBackend:
    def test_busy_is_mapped_to_ebusy(self, tmp_path):
        a = SqliteBackend(tmp_path / "db", busy_timeout=0.05)
        b = SqliteBackend(tmp_path / "db", busy_timeout=0.05)
        path = tmp_path / "stream"
        a.append_bytes(path, b"seed\n")
        with a.transaction() as conn:
            # Hold the write lock open across the other connection's try.
            conn.execute(
                "INSERT INTO frames (path, seq, data) VALUES ('h', 0, ?)",
                (b"held\n",),
            )
            with pytest.raises(OSError) as excinfo:
                b.append_bytes(path, b"blocked\n")
            assert excinfo.value.errno == errno.EBUSY
        a.close()
        b.close()

    def test_busy_rides_the_retry_policy(self, tmp_path):
        """A lock held briefly by another connection is absorbed by the
        same RetryPolicy that handles transient EIO — no new error
        taxonomy for backend contention."""
        a = SqliteBackend(tmp_path / "db", busy_timeout=0.05)
        b = SqliteBackend(tmp_path / "db", busy_timeout=0.05)
        path = tmp_path / "stream"
        a.append_bytes(path, b"seed\n")
        release = threading.Event()

        def holder():
            with a.transaction() as conn:
                conn.execute(
                    "INSERT INTO frames (path, seq, data) "
                    "VALUES ('h', 0, ?)",
                    (b"held\n",),
                )
                release.wait(timeout=5.0)

        t = threading.Thread(target=holder)
        t.start()
        try:
            import time

            time.sleep(0.05)  # let the holder take the write lock

            def unlock_then_sleep(_attempt):
                release.set()
                time.sleep(0.2)

            append_record(
                b, path, b"retried\n",
                retry=RetryPolicy(attempts=5, sleep=unlock_then_sleep),
                latch=DegradedLatch(store=str(path)),
            )
        finally:
            release.set()
            t.join()
        assert b.read_bytes(path).endswith(b"retried\n")
        a.close()
        b.close()

    def test_transactional_replace_rekeys_frames(self, tmp_path):
        fs = SqliteBackend(tmp_path / "db")
        src, dst = tmp_path / "a", tmp_path / "b"
        fs.append_bytes(src, b"one\n")
        fs.append_bytes(src, b"two\n")
        fs.replace(src, dst)
        assert fs.read_bytes(dst) == b"one\ntwo\n"
        assert not fs.exists(src)
        fs.close()

    def test_replace_missing_source_raises(self, tmp_path):
        fs = SqliteBackend(tmp_path / "db")
        with pytest.raises(FileNotFoundError):
            fs.replace(tmp_path / "missing", tmp_path / "dst")
        fs.close()

    def test_operations_survive_connection_loss(self, tmp_path):
        fs = SqliteBackend(tmp_path / "db")
        fs.append_bytes(tmp_path / "s", b"committed\n")
        fs.simulate_torn_append(tmp_path / "s", b"partial-uncommitted\n")
        # The torn transaction rolled back with the dead connection.
        fresh = SqliteBackend(tmp_path / "db")
        assert fresh.read_bytes(tmp_path / "s") == b"committed\n"
        fresh.close()

    def test_commit_failure_does_not_wedge_the_connection(self, tmp_path):
        """A failed COMMIT must leave the connection outside any
        transaction: without the rollback, every later BEGIN IMMEDIATE
        fails with 'cannot start a transaction within a transaction'
        and one transient fault permanently wedges the backend."""
        import sqlite3

        fs = SqliteBackend(tmp_path / "db")

        class FailNextCommit:
            def __init__(self, conn):
                self._conn = conn
                self.armed = True

            def execute(self, sql, *args):
                if sql == "COMMIT" and self.armed:
                    self.armed = False
                    raise sqlite3.OperationalError("disk I/O error")
                return self._conn.execute(sql, *args)

            def __getattr__(self, name):
                return getattr(self._conn, name)

        fs._conn = FailNextCommit(fs._conn)
        path = tmp_path / "s"
        with pytest.raises(OSError) as excinfo:
            fs.append_bytes(path, b"lost\n")
        assert excinfo.value.errno == errno.EIO
        # The backend recovered: the next transaction begins cleanly
        # (the retry layer relies on exactly this).
        fs.append_bytes(path, b"after\n")
        assert fs.read_bytes(path) == b"after\n"
        fs.close()
