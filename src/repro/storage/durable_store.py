"""A durable TIGUKAT objectbase: full snapshots + schema-operation WAL.

Completes the persistence story: :class:`DurableLattice` covers schema
only; :class:`DurableObjectbase` persists the whole store.  The recipe
is the classic one:

* **snapshot** — the complete objectbase (schema, behaviors, functions,
  classes, collections, instances) via
  :mod:`repro.storage.objectbase_snapshot`, written atomically with a
  checkpoint generation (see :mod:`repro.storage.framing`);
* **WAL** — between snapshots, every schema-evolution operation executed
  through the manager is appended as a framed, checksummed record (the
  §3.3 operations are all replayable: the log stores the manager method
  and arguments) *before* it mutates the in-memory store — genuine
  write-ahead logging;
* **recovery** — load the latest snapshot, replay the live (unfenced)
  WAL tail through a fresh :class:`SchemaManager`.

All three ride on :class:`~repro.storage.journal.JournalFile`, the one
WAL engine: this module contributes only the record codec and the
replay applier below.

Because the log is written ahead of the mutation, a record can be on
disk for an operation that never applied: (a) the method was *rejected*
in memory — an ``__abort__`` marker is appended so replay skips the
record deterministically; (b) the process crashed between append and
apply — then the record is necessarily the *final* one, and replay
treats a rejected final record as the logged-but-unapplied tail (skips
it, with a counter) rather than corruption.  Any mid-log replay failure
is still a hard error: something other than a crash broke the log.

Instance mutations (AO/MO/DO) are *not* WAL-logged — like most object
stores, data durability rides on snapshots (call :meth:`checkpoint`),
while schema durability is continuous.  The recovery contract tested:
after any crash point, the schema is exact and the data is at the last
checkpoint.
"""

from __future__ import annotations

import logging
from pathlib import Path
from typing import Any, Callable

from ..core.errors import JournalError, SchemaError
from ..obs.metrics import REGISTRY
from ..tigukat.evolution import SchemaManager
from ..tigukat.store import Objectbase
from .backend import resolve_storage_url
from .faults import StorageFS
from .framing import DurabilityPolicy, FramedRecord
from .journal import JournalFile, RecordCodec
from .objectbase_snapshot import objectbase_from_dict, objectbase_to_dict
from .reliability import RetryPolicy

__all__ = ["DurableObjectbase"]

logger = logging.getLogger(__name__)

_UNAPPLIED_TAIL = REGISTRY.counter(
    "repro_wal_unapplied_tail_total",
    "Logged-but-unapplied tail records skipped during replay",
)

#: manager methods that are WAL-replayable, with their argument names
_REPLAYABLE = {
    "at": ("name", "supertypes", "behaviors", "with_class"),
    "dt": ("name", "migrate_to"),
    "mt_ab": ("type_name", "behavior"),
    "mt_db": ("type_name", "behavior"),
    "mt_asr": ("type_name", "supertype"),
    "mt_dsr": ("type_name", "supertype"),
    "ac": ("type_name",),
    "dc": ("type_name", "migrate_to"),
    "db": ("behavior",),
    "al": ("name", "member_type"),
    "dl": ("name",),
    "define_stored_behavior": ("semantics", "name", "result_type"),
}

#: WAL marker for a record whose in-memory application was rejected.
_ABORT = "__abort__"


def _decode_wal_record(record: dict) -> dict:
    """Semantic validation for the shared framed-record reader."""
    method = record.get("method")
    if not isinstance(method, str):
        raise ValueError(f"record has no method: {record!r}")
    if method != _ABORT and method not in _REPLAYABLE:
        raise ValueError(f"unknown WAL method {method!r}")
    if not isinstance(record.get("args"), dict):
        raise ValueError(f"record has no args object: {record!r}")
    return record


_CODEC = RecordCodec(decode=_decode_wal_record, snapshot=objectbase_to_dict)


class _Record(dict):
    """A WAL record payload, in the shape :meth:`JournalFile.append`
    writes (``to_dict()``)."""

    def to_dict(self) -> dict:
        return self


def _target(manager: SchemaManager, method: str) -> Callable[..., Any]:
    return getattr(manager, method, None) or getattr(manager.store, method)


class DurableObjectbase:
    """An objectbase whose schema evolution is write-ahead durable."""

    def __init__(
        self,
        directory: str | Path,
        computed_bodies: dict[str, Callable[..., Any]] | None = None,
        *,
        durability: DurabilityPolicy | None = None,
        recovery: str = "strict",
        fs: StorageFS | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        # A backend URL resolves to its backend plus a logical directory
        # inside it; an explicit ``fs`` always wins (fault injection).
        target = resolve_storage_url(directory, fs=fs)
        self.directory = Path(target.path)
        target.fs.mkdirs(self.directory)
        self.file = JournalFile(
            self.directory / "schema.wal",
            codec=_CODEC,
            checkpoint_path=self.directory / "objectbase.json",
            durability=durability,
            fs=target.fs,
            retry=retry,
        )
        self.wal_path = self.file.path
        self._bodies = computed_bodies or {}
        self._seq = 0
        replay = self.file.replay(self._load, self._replay_record, recovery)
        self.manager = replay.base
        self.store = self.manager.store
        self.recovery_report = replay.report
        self.file.auto_checkpoint(self.store)

    # -- the durable operation surface -------------------------------------

    def execute(self, method: str, *args: Any, **kwargs: Any) -> Any:
        """Run one schema-evolution method durably (write-ahead logged).

        ``method`` is a :class:`SchemaManager` method name (or the
        behavior-definition helper).  The record is appended to the WAL
        *before* the method touches the store — write-ahead, matching
        :meth:`DurableLattice.apply` — so no applied mutation can be
        lost.  If the method is then rejected in memory, an ``__abort__``
        marker is appended so replay skips the record; a crash between
        append and apply leaves the record as the final one, which
        replay treats as an unapplied tail (see the module docstring).
        """
        spec = _REPLAYABLE.get(method)
        if spec is None:
            raise JournalError(
                f"{method!r} is not a durable (WAL-replayable) operation"
            )
        target = _target(self.manager, method)
        record_args = self._bind(spec, args, kwargs)
        self._seq += 1
        self.file.append(
            _Record(method=method, args=record_args, seq=self._seq)
        )
        try:
            result = target(*args, **kwargs)
        except SchemaError:
            self.file.append(_Record(method=_ABORT, args={"seq": self._seq}))
            raise
        self.file.auto_checkpoint(self.store, 1)
        return result

    @property
    def degraded(self) -> bool:
        """Whether the store is latched read-only after append failure."""
        return self.file.degraded

    @property
    def _generation(self) -> int:
        return self.file.generation

    def _bind(self, spec: tuple[str, ...], args: tuple, kwargs: dict) -> dict:
        bound: dict[str, Any] = {}
        for name, value in zip(spec, args):
            bound[name] = value
        for name, value in kwargs.items():
            if name not in spec:
                raise JournalError(f"unloggable argument {name!r}")
            bound[name] = value
        for name, value in bound.items():
            if isinstance(value, (tuple, frozenset, set)):
                bound[name] = sorted(value) if isinstance(
                    value, (set, frozenset)
                ) else list(value)
        return bound

    # -- recovery ---------------------------------------------------------------

    def _load(self, state: dict | None) -> SchemaManager:
        store = (
            objectbase_from_dict(state, self._bodies) if state is not None
            else Objectbase()
        )
        return SchemaManager(store)

    def _replay_record(
        self,
        manager: SchemaManager,
        record: FramedRecord,
        following: FramedRecord | None,
    ) -> None:
        """Re-execute one logged method.

        A record whose ``__abort__`` marker follows it was rejected when
        it was logged and is skipped unexecuted.  A final record that
        the engine rejects is the logged-but-unapplied tail of a crash
        between append and apply; anywhere else a rejection means the
        log is broken.
        """
        payload = record.payload
        seq = payload.get("seq")
        if isinstance(seq, int):
            self._seq = max(self._seq, seq)
        method = payload["method"]
        if method == _ABORT or (
            following is not None
            and following.payload["method"] == _ABORT
            and following.payload["args"].get("seq") == seq
        ):
            return
        kwargs = dict(payload["args"])
        for key in ("supertypes", "behaviors"):
            if isinstance(kwargs.get(key), list):
                kwargs[key] = tuple(kwargs[key])
        try:
            _target(manager, method)(**kwargs)
        except SchemaError as exc:
            if following is not None:
                raise JournalError(
                    f"WAL replay failed at line {record.lineno}: {exc}"
                ) from exc
            _UNAPPLIED_TAIL.inc()
            logger.info(
                "skipping logged-but-unapplied tail record "
                "(line %d, method %s): %s", record.lineno, method, exc,
            )

    # -- snapshots ------------------------------------------------------------

    def checkpoint(self) -> None:
        """Snapshot the whole store (schema AND instances); truncate WAL.

        Atomic and fenced exactly like :meth:`DurableLattice.checkpoint`
        — the same :meth:`JournalFile.checkpoint` writes both.
        """
        self.file.checkpoint(self.store)

    def sync(self) -> None:
        """Flush appended WAL records (the batch-policy commit point)."""
        self.file.sync()

    @classmethod
    def reopen(
        cls,
        directory: str | Path,
        computed_bodies: dict[str, Callable[..., Any]] | None = None,
        *,
        durability: DurabilityPolicy | None = None,
        recovery: str = "strict",
        fs: StorageFS | None = None,
        retry: RetryPolicy | None = None,
    ) -> "DurableObjectbase":
        """Simulated restart: rebuild purely from durable state."""
        return cls(
            directory, computed_bodies,
            durability=durability, recovery=recovery, fs=fs, retry=retry,
        )
