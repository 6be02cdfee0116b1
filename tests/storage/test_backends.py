"""Unit tests for the storage seam itself.

The crash matrix (``test_crash_matrix.py``) proves the stores honor the
recovery contract; this file covers the seams around it: turning a
database location into a WAL path, and the byte-stream conformance of
each :class:`RealFS` primitive.
"""

from pathlib import Path

import pytest

from repro.core import AddType
from repro.core.errors import JournalError
from repro.replication import ReplicationSource
from repro.storage import FaultyFS, RealFS, atomic_write_bytes
from repro.storage.backend import storage_path
from repro.storage.journal import DurableLattice, JournalFile


class TestResolveStorageUrl:
    """:func:`storage_path`: a database location to its WAL path."""

    def test_bare_path_is_the_file_backend(self, tmp_path):
        assert storage_path(tmp_path / "wal") == tmp_path / "wal"
        assert storage_path(str(tmp_path / "wal")) == tmp_path / "wal"

    def test_file_scheme(self, tmp_path):
        assert storage_path(f"file:{tmp_path}/wal") == tmp_path / "wal"
        assert storage_path(f"file://{tmp_path}/wal") == tmp_path / "wal"

    def test_single_letter_scheme_is_a_windows_drive(self):
        # "C:\\data\\wal" must parse as a path, not a backend URL.
        assert storage_path("C:/data/wal") == Path("C:/data/wal")

    def test_sqlite_scheme_names_the_removal(self, tmp_path):
        with pytest.raises(JournalError, match="backend was removed"):
            storage_path(f"sqlite:{tmp_path}/store.sqlite")

    def test_unknown_scheme_is_a_typed_error(self):
        with pytest.raises(JournalError, match="unknown storage backend"):
            storage_path("redis://localhost/0")

    def test_empty_rest_is_rejected(self):
        with pytest.raises(JournalError, match="names no path"):
            storage_path("file:")

    def test_explicit_fs_always_wins(self, tmp_path):
        # An injected fs is the store's substrate; the location is
        # parsed all the same.
        fs = RealFS()
        journal = JournalFile(f"file:{tmp_path}/wal", fs=fs)
        assert journal.fs is fs
        assert journal.path == tmp_path / "wal"

    def test_file_url_with_injected_fs_writes_to_the_path(self, tmp_path):
        path = tmp_path / "wal"
        durable = DurableLattice(f"file:{path}", fs=FaultyFS())
        durable.apply(AddType("T_a"))
        assert not durable.degraded
        assert path.exists()
        assert "T_a" in DurableLattice.reopen(path).lattice


class TestStoragePhysicalPath:
    """Each store parses its location once, at construction, and its
    checkpoint and sidecars sit next to the WAL path."""

    def test_all_schemes_anchor_at_the_url_path(self, tmp_path):
        wal = tmp_path / "wal"
        checkpoint = tmp_path / "wal.checkpoint"
        for location in (wal, str(wal), f"file:{wal}"):
            journal = JournalFile(location)
            assert (journal.path, journal.checkpoint_path) == \
                (wal, checkpoint)
            source = ReplicationSource(location)
            assert (source.path, source.checkpoint_path) == \
                (wal, checkpoint)

    def test_resolution_is_pure(self, tmp_path):
        """Constructing a store touches nothing on disk, and neither
        does parsing a location the lease is anchored at."""
        storage_path(f"file:{tmp_path}/sub/wal")
        JournalFile(f"file:{tmp_path}/sub/wal")
        ReplicationSource(f"file:{tmp_path}/sub/wal")
        assert list(tmp_path.iterdir()) == []

    def test_unknown_scheme_is_a_typed_error(self):
        with pytest.raises(JournalError, match="unknown storage backend"):
            ReplicationSource("redis://localhost/0")

    def test_windows_drive_is_a_path(self):
        assert str(JournalFile("C:/data/wal").path) == "C:/data/wal"


class TestPrimitiveConformance:
    """The byte-stream semantics the durability layer relies on."""

    def test_append_read_size_exists(self, tmp_path):
        fs = RealFS()
        path = tmp_path / "stream"
        assert not fs.exists(path)
        fs.append_bytes(path, b"one\n")
        fs.append_bytes(path, b"two\n")
        assert fs.exists(path)
        assert fs.read_bytes(path) == b"one\ntwo\n"
        assert fs.size(path) == 8
        # A restarted instance sees the same bytes.
        assert RealFS().read_bytes(path) == b"one\ntwo\n"

    def test_write_replaces_whole_stream(self, tmp_path):
        fs = RealFS()
        path = tmp_path / "stream"
        fs.append_bytes(path, b"old content")
        fs.write_bytes(path, b"new")
        assert fs.read_bytes(path) == b"new"

    def test_truncate_cuts_to_prefix(self, tmp_path):
        fs = RealFS()
        path = tmp_path / "stream"
        fs.write_bytes(path, b"0123456789")
        fs.truncate(path, 4)
        assert fs.read_bytes(path) == b"0123"
        assert fs.size(path) == 4

    def test_replace_moves_atomically(self, tmp_path):
        fs = RealFS()
        src, dst = tmp_path / "src", tmp_path / "dst"
        fs.write_bytes(src, b"payload")
        fs.write_bytes(dst, b"stale")
        fs.replace(src, dst)
        assert fs.read_bytes(dst) == b"payload"
        assert not fs.exists(src)

    def test_unlink_is_idempotent(self, tmp_path):
        fs = RealFS()
        path = tmp_path / "stream"
        fs.write_bytes(path, b"x")
        fs.unlink(path)
        assert not fs.exists(path)
        fs.unlink(path)  # missing_ok semantics

    def test_size_of_missing_stream_raises(self, tmp_path):
        fs = RealFS()
        with pytest.raises(FileNotFoundError):
            fs.size(tmp_path / "nope")

    def test_atomic_write_bytes_lands_whole(self, tmp_path):
        fs = RealFS()
        path = tmp_path / "doc"
        atomic_write_bytes(fs, path, b"v1")
        atomic_write_bytes(fs, path, b"v2")
        assert fs.read_bytes(path) == b"v2"
        # No temp residue survives a successful publish.
        assert not fs.exists(path.with_suffix(path.suffix + ".tmp"))

    def test_atomic_write_bytes_fsyncs_the_directory(self, tmp_path):
        fs = FaultyFS()
        atomic_write_bytes(fs, tmp_path / "doc", b"v1")
        assert fs.trace[-2:] == [
            "replace-pre:doc", f"fsyncdir-pre:{tmp_path.name}"
        ]
