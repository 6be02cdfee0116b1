"""Deterministic fault injection for the durability path.

The storage layer performs every mutating storage operation through a
:class:`StorageFS` object.  :class:`RealFS` is the production filesystem
implementation (thin wrappers over :mod:`os` / :mod:`pathlib`).
:class:`FaultyFS` wraps it and injects the failure families the
crash-matrix suite exercises:

* **crash-at-boundary** — every mutating primitive exposes numbered
  *injection points* (before the effect, mid-write, ...).  Points are
  counted process-wide per ``FaultyFS`` instance; when the running count
  reaches ``crash_at``, the point's partial effect is applied and
  :class:`CrashPoint` is raised.  Once crashed, every later call raises
  immediately — the "process" is dead, exactly like a power failure.
  Scheduling is thread-safe: racing writers each draw a distinct point
  index under an internal lock, so a planned fault is never skipped.
* **short writes** — the mid-write point of ``append_bytes`` /
  ``write_bytes`` persists only the first half of the payload before
  crashing, producing the torn records the framed-WAL reader must
  detect.
* **fsync failures** — with ``fail_fsync=True`` every file fsync raises
  :class:`OSError` *without* crashing, modeling an EIO from the kernel
  (the journal surfaces it as a typed :class:`~repro.core.errors.JournalError`).
* **disk full** — ``enospc_appends=N`` / ``enospc_writes=N`` fail the
  first N appends/whole-file writes with ``OSError(ENOSPC)`` after
  persisting half the payload, modeling a volume running out of space
  mid-write.  Unlike a crash the process survives and must cope: the
  salvage quarantine path downgrades to best-effort, the checkpoint
  writer surfaces a typed error with the old checkpoint intact, and the
  WAL retry layer rolls back the partial bytes exactly as it does for
  EIO.  Like transient faults, ENOSPC does not consume crash points.
* **torn renames** — with ``torn_replace=True`` every ``replace`` gains
  a second numbered point (``replace-torn:<dst>``) whose partial effect
  is the nastiest crash state a rename can leave: the *new* content is
  visible at the destination but the source (temp) file still exists —
  a crash after the data blocks and destination entry reached disk but
  before the source unlink did.  Recovery must prefer the destination
  and treat the stale temp file as residue to ignore and remove.
* **transient faults** — ``transient_fsync_failures=N`` /
  ``transient_append_failures=N`` fail the first N fsyncs/appends with
  :class:`OSError` and then recover, modeling the recoverable EIO and
  short-write blips the storage retry layer
  (:mod:`repro.storage.reliability`) must absorb.  A transient append
  persists only the first half of the payload before failing, so the
  retry path must also roll the partial write back.  Transient faults do
  **not** consume crash injection points — the two dimensions compose.
* **write reordering** — with ``reorder=True`` the fault model tracks,
  per file, the last state that an fsync barrier made durable.  When a
  mutation lands while *other* files still have un-synced changes, a
  ``reorder:`` point fires whose crash state is the classic reordered
  write: the current mutation is on disk but every other un-synced file
  rolls back to its last barrier state.  Writes to the *same* file stay
  ordered (byte-stream semantics); only cross-file ordering is at risk,
  which is exactly what fsync barriers — and checkpoint generation
  fencing — exist to control.

The crash-matrix driver iterates ``crash_at`` from 0 upward until a full
workload completes without crashing (``total_points`` many boundaries),
recovering and checking prefix consistency after each simulated failure.
Reads are never injection points: crashing a reader is just a process
restart, which the recovery tests cover directly.
"""

from __future__ import annotations

import errno
import os
import threading
from pathlib import Path

__all__ = ["CrashPoint", "StorageFS", "RealFS", "FaultyFS"]


class CrashPoint(Exception):
    """A simulated power failure at one I/O boundary.

    Deliberately *outside* the :class:`~repro.core.errors.EvolutionError`
    taxonomy: storage code must never catch it, the same way it cannot
    catch a real power cut.
    """


class StorageFS:
    """The storage primitives the durability path is allowed to use.

    The byte-stream semantics are POSIX files': ``append_bytes``
    extends, ``write_bytes`` replaces, ``replace`` atomically renames,
    ``truncate`` cuts to a prefix.  A rename is durable only after
    ``fsync_dir`` on its directory.
    """

    def exists(self, path: Path) -> bool:
        raise NotImplementedError

    def size(self, path: Path) -> int:
        raise NotImplementedError

    def read_bytes(self, path: Path) -> bytes:
        raise NotImplementedError

    def append_bytes(self, path: Path, data: bytes) -> None:
        raise NotImplementedError

    def write_bytes(self, path: Path, data: bytes) -> None:
        raise NotImplementedError

    def replace(self, src: Path, dst: Path) -> None:
        raise NotImplementedError

    def truncate(self, path: Path, size: int) -> None:
        raise NotImplementedError

    def unlink(self, path: Path) -> None:
        raise NotImplementedError

    def fsync_file(self, path: Path) -> None:
        raise NotImplementedError

    def fsync_dir(self, path: Path) -> None:
        raise NotImplementedError

    def mkdirs(self, path: Path) -> None:
        raise NotImplementedError


class RealFS(StorageFS):
    """Production filesystem access (POSIX semantics assumed)."""

    def exists(self, path: Path) -> bool:
        return Path(path).exists()

    def size(self, path: Path) -> int:
        return os.path.getsize(path)

    def read_bytes(self, path: Path) -> bytes:
        return Path(path).read_bytes()

    def append_bytes(self, path: Path, data: bytes) -> None:
        with open(path, "ab") as fh:
            fh.write(data)
            fh.flush()

    def write_bytes(self, path: Path, data: bytes) -> None:
        with open(path, "wb") as fh:
            fh.write(data)
            fh.flush()

    def replace(self, src: Path, dst: Path) -> None:
        os.replace(src, dst)

    def truncate(self, path: Path, size: int) -> None:
        os.truncate(path, size)

    def unlink(self, path: Path) -> None:
        Path(path).unlink(missing_ok=True)

    def fsync_file(self, path: Path) -> None:
        fd = os.open(path, os.O_RDWR)
        try:
            os.fsync(fd)
        finally:
            os.close(fd)

    def fsync_dir(self, path: Path) -> None:
        # Durability of a rename needs the directory entry flushed too;
        # best effort where the platform cannot fsync a directory.
        try:
            fd = os.open(path, os.O_RDONLY)
        except OSError:
            return
        try:
            os.fsync(fd)
        except OSError:
            pass
        finally:
            os.close(fd)

    def mkdirs(self, path: Path) -> None:
        Path(path).mkdir(parents=True, exist_ok=True)


_ABSENT = object()  #: reorder-tracking marker: file did not exist


class FaultyFS(StorageFS):
    """A :class:`StorageFS` that fails on purpose (see module docstring).

    Parameters
    ----------
    crash_at:
        Zero-based index of the injection point at which to crash, or
        ``None`` to never crash (useful to count a workload's points).
    fail_fsync:
        When true, :meth:`fsync_file` raises :class:`OSError` instead of
        syncing (the process survives; callers must surface the error).
    transient_fsync_failures:
        Fail the first N file fsyncs with :class:`OSError`, then behave
        normally — the recoverable-EIO case the retry layer absorbs.
    transient_append_failures:
        Fail the first N appends: persist half the payload, then raise
        :class:`OSError` (a recoverable short write).  The retry layer
        must truncate the partial bytes away before re-appending.
    enospc_appends / enospc_writes:
        Fail the first N appends / whole-file writes with
        ``OSError(ENOSPC)`` after persisting half the payload — the
        disk-full family (see module docstring).
    torn_replace:
        Add the ``replace-torn`` injection point to every ``replace``:
        new content visible at the destination, source left behind.
    reorder:
        Track fsync barriers and add ``reorder:`` injection points whose
        crash state persists the current mutation while rolling every
        *other* un-synced file back to its last barrier state (the
        write-reordering model; see module docstring).
    base:
        The real storage to delegate surviving operations to (defaults
        to :class:`RealFS`).
    """

    def __init__(
        self,
        crash_at: int | None = None,
        fail_fsync: bool = False,
        base: StorageFS | None = None,
        transient_fsync_failures: int = 0,
        transient_append_failures: int = 0,
        enospc_appends: int = 0,
        enospc_writes: int = 0,
        torn_replace: bool = False,
        reorder: bool = False,
    ) -> None:
        self.base = base or RealFS()
        self.crash_at = crash_at
        self.fail_fsync = fail_fsync
        self.transient_fsync_failures = transient_fsync_failures
        self.transient_append_failures = transient_append_failures
        self.enospc_appends = enospc_appends
        self.enospc_writes = enospc_writes
        self.torn_replace = torn_replace
        self.reorder = reorder
        self.points = 0
        self.crashed = False
        self.trace: list[str] = []
        self._mutex = threading.Lock()
        #: path -> bytes at the last fsync barrier (or _ABSENT).
        self._unsynced: dict[str, object] = {}

    # -- injection scheduling (thread-safe) ----------------------------

    def _point(self, label: str) -> bool:
        """Count one injection point; True means crash *here* (the caller
        applies the point's partial effect first, then raises).

        Guarded by a lock: concurrent writers each draw a distinct index
        and exactly one of them observes ``index == crash_at``, so the
        planned fault cannot be skipped under racing appends.
        """
        with self._mutex:
            if self.crashed:
                raise CrashPoint(f"process already dead (at {label})")
            index = self.points
            self.points += 1
            self.trace.append(label)
            if self.crash_at is not None and index == self.crash_at:
                self.crashed = True
                return True
            return False

    def _consume(self, attr: str) -> bool:
        """Atomically decrement a fault countdown; True while it lasts."""
        with self._mutex:
            value = getattr(self, attr)
            if value > 0:
                setattr(self, attr, value - 1)
                return True
            return False

    # -- write-reordering barrier tracking -----------------------------

    def _note_mutation(self, path: Path) -> None:
        """Snapshot a file's last-barrier state before mutating it.

        The read happens *inside* the mutex: with two threads racing to
        first-mutate the same file, a snapshot taken outside could
        capture the other thread's already-applied partial mutation as
        the "barrier state", and :meth:`_apply_reorder_crash` would then
        roll back to a state that never existed at a barrier.
        """
        if not self.reorder:
            return
        key = str(path)
        with self._mutex:
            if key in self._unsynced:
                return
            self._unsynced[key] = (
                self.base.read_bytes(path)
                if self.base.exists(path) else _ABSENT
            )

    def _reorder_point(self, kind: str, path: Path) -> bool:
        """Whether to crash here with the reordered-write state."""
        if not self.reorder:
            return False
        key = str(path)
        with self._mutex:
            others = any(k != key for k in self._unsynced)
        if not others:
            return False
        return self._point(f"reorder:{kind}:{Path(path).name}")

    def _apply_reorder_crash(self, exclude: set[str]) -> None:
        """Roll every un-synced file (except ``exclude``) back to its
        last barrier state — the crash persisted the current mutation
        ahead of older writes to other files."""
        for key, state in list(self._unsynced.items()):
            if key in exclude:
                continue
            if state is _ABSENT:
                self.base.unlink(Path(key))
            else:
                self.base.write_bytes(Path(key), state)  # type: ignore[arg-type]

    def _clear_barrier(self, path: Path) -> None:
        with self._mutex:
            self._unsynced.pop(str(path), None)

    # -- reads are never injected --------------------------------------

    def exists(self, path: Path) -> bool:
        return self.base.exists(path)

    def size(self, path: Path) -> int:
        return self.base.size(path)

    def read_bytes(self, path: Path) -> bytes:
        return self.base.read_bytes(path)

    # -- mutating primitives -------------------------------------------

    def append_bytes(self, path: Path, data: bytes) -> None:
        self._note_mutation(path)
        if self._consume("enospc_appends"):
            if len(data) > 1:
                self.base.append_bytes(path, data[: len(data) // 2])
            raise OSError(
                errno.ENOSPC, f"injected disk-full appending to {path}"
            )
        if self._consume("transient_append_failures"):
            if len(data) > 1:
                self.base.append_bytes(path, data[: len(data) // 2])
            raise OSError(5, f"injected transient short write to {path}")
        if self._reorder_point("append", path):
            self.base.append_bytes(path, data)
            self._apply_reorder_crash({str(path)})
            raise CrashPoint(
                f"reordered write: append to {path} persisted ahead of "
                f"older un-synced writes"
            )
        if self._point(f"append-pre:{Path(path).name}"):
            raise CrashPoint(f"crash before append to {path}")
        if len(data) > 1 and self._point(f"append-short:{Path(path).name}"):
            self.base.append_bytes(path, data[: len(data) // 2])
            raise CrashPoint(f"short write appending to {path}")
        self.base.append_bytes(path, data)

    def write_bytes(self, path: Path, data: bytes) -> None:
        self._note_mutation(path)
        if self._consume("enospc_writes"):
            if len(data) > 1:
                self.base.write_bytes(path, data[: len(data) // 2])
            raise OSError(
                errno.ENOSPC, f"injected disk-full writing {path}"
            )
        if self._reorder_point("write", path):
            self.base.write_bytes(path, data)
            self._apply_reorder_crash({str(path)})
            raise CrashPoint(
                f"reordered write: {path} persisted ahead of older "
                f"un-synced writes"
            )
        if self._point(f"write-pre:{Path(path).name}"):
            raise CrashPoint(f"crash before write of {path}")
        if len(data) > 1 and self._point(f"write-short:{Path(path).name}"):
            self.base.write_bytes(path, data[: len(data) // 2])
            raise CrashPoint(f"short write of {path}")
        self.base.write_bytes(path, data)

    def replace(self, src: Path, dst: Path) -> None:
        if self._reorder_point("replace", dst):
            self.base.replace(src, dst)
            self._apply_reorder_crash({str(src), str(dst)})
            raise CrashPoint(
                f"reordered write: rename of {dst} persisted ahead of "
                f"older un-synced writes"
            )
        if self._point(f"replace-pre:{Path(dst).name}"):
            raise CrashPoint(f"crash before replacing {dst}")
        if self.torn_replace and self._point(f"replace-torn:{Path(dst).name}"):
            # The torn-rename crash state: data blocks and destination
            # entry durable, source unlink not (see module docstring).
            self.base.write_bytes(dst, self.base.read_bytes(src))
            raise CrashPoint(
                f"torn rename: {dst} updated but {src} left behind"
            )
        src_unsynced = False
        if self.reorder:
            with self._mutex:
                src_unsynced = str(src) in self._unsynced
            if src_unsynced:
                # Renaming never-synced content: it stays vulnerable at
                # its new name, against the pre-rename destination state.
                self._note_mutation(dst)
        self.base.replace(src, dst)
        if self.reorder:
            with self._mutex:
                self._unsynced.pop(str(src), None)
                if not src_unsynced:
                    # Synced content arrived atomically: dst is durable.
                    self._unsynced.pop(str(dst), None)

    def truncate(self, path: Path, size: int) -> None:
        self._note_mutation(path)
        if self._reorder_point("truncate", path):
            self.base.truncate(path, size)
            self._apply_reorder_crash({str(path)})
            raise CrashPoint(
                f"reordered write: truncate of {path} persisted ahead "
                f"of older un-synced writes"
            )
        if self._point(f"truncate-pre:{Path(path).name}"):
            raise CrashPoint(f"crash before truncating {path}")
        self.base.truncate(path, size)

    def unlink(self, path: Path) -> None:
        self._note_mutation(path)
        if self._point(f"unlink-pre:{Path(path).name}"):
            raise CrashPoint(f"crash before unlinking {path}")
        self.base.unlink(path)

    def fsync_file(self, path: Path) -> None:
        if self._consume("transient_fsync_failures"):
            raise OSError(5, f"injected transient fsync failure for {path}")
        if self._point(f"fsync-pre:{Path(path).name}"):
            raise CrashPoint(f"crash before fsync of {path}")
        if self.fail_fsync:
            raise OSError(5, f"injected fsync failure for {path}")
        self.base.fsync_file(path)
        self._clear_barrier(path)

    def fsync_dir(self, path: Path) -> None:
        if self._point(f"fsyncdir-pre:{Path(path).name}"):
            raise CrashPoint(f"crash before directory fsync of {path}")
        self.base.fsync_dir(path)

    def mkdirs(self, path: Path) -> None:
        if self._point(f"mkdir-pre:{Path(path).name}"):
            raise CrashPoint(f"crash before creating directory {path}")
        self.base.mkdirs(path)
