"""Write-ahead journal: durable, replayable operation log.

The durability counterpart of :mod:`repro.storage.snapshot`: instead of
persisting state, persist the *operations* (which are already
serializable command objects) and recover by replay.  The recovery
contract is the journal-replay property tested in the core suite: a
replayed lattice is state-identical to the lost one.

Layout: one record per applied operation in a checksummed, framed log
(see :mod:`repro.storage.framing` for the frame grammar, the torn/
corrupt damage taxonomy, and checkpoint generation fencing), plus an
atomically-replaced snapshot checkpoint at ``<wal>.checkpoint`` that
truncates the log (classic WAL + checkpoint).

Every append and every checkpoint is fsynced before it returns, so an
acknowledged operation survives power loss.  A
:class:`~repro.storage.framing.DurabilityPolicy` sets only the
auto-checkpoint thresholds; recovery is governed by a mode — ``strict``
raises on corruption, ``salvage`` quarantines it — surfaced through
:meth:`DurableLattice.reopen` and the ``repro recover`` CLI.

:class:`JournalFile` is the only WAL engine in the package and
:meth:`JournalFile.replay` the only recovery path.  Every log holds
schema operations and every checkpoint a lattice document, so the
schema store (:class:`DurableLattice`) and the replica
(:class:`~repro.replication.replica.ReplicaStore`) differ only in the
applier they hand to it.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable, Generic, TypeVar

from ..core.config import LatticePolicy
from ..core.errors import NothingToUndoError
from ..core.history import EvolutionJournal
from ..core.lattice import TypeLattice
from ..core.operations import SchemaOperation, operation_from_dict
from ..obs.metrics import REGISTRY, SIZE_BUCKETS
from .backend import storage_path
from .faults import RealFS, StorageFS
from .framing import (
    DurabilityPolicy,
    FramedRecord,
    SalvageReport,
    encode_frame,
    fence_records,
    load_checkpoint,
    read_log,
    timed_fsync,
    write_checkpoint,
)
from .reliability import DegradedLatch, RetryPolicy, append_record
from .snapshot import lattice_from_dict, lattice_to_dict

__all__ = [
    "JournalFile",
    "DurableLattice",
    "Replay",
    "lattice_from_checkpoint",
]

logger = logging.getLogger(__name__)

T = TypeVar("T")

_WAL_APPENDS = REGISTRY.counter(
    "repro_wal_appends_total", "Operation records appended to the WAL"
)
_WAL_APPEND_SECONDS = REGISTRY.histogram(
    "repro_wal_append_seconds", "Latency of one WAL append"
)
_WAL_REPLAY_OPS = REGISTRY.counter(
    "repro_wal_replayed_ops_total", "Operations replayed from WAL tails"
)
_WAL_REPLAY_SECONDS = REGISTRY.histogram(
    "repro_wal_replay_seconds",
    "Wall time to replay one WAL tail through the in-memory journal",
)
_WAL_COALESCED = REGISTRY.histogram(
    "repro_wal_replay_coalesced_ops",
    "Operations coalesced into one derivation pass per replayed tail",
    buckets=SIZE_BUCKETS,
)
_WAL_CHECKPOINTS = REGISTRY.counter(
    "repro_wal_checkpoints_total", "WAL-to-snapshot checkpoint folds"
)
_WAL_AUTO_CHECKPOINTS = REGISTRY.counter(
    "repro_wal_auto_checkpoints_total",
    "Checkpoints triggered automatically by the durability policy",
    labelnames=("reason",),
)


@dataclass(frozen=True)
class Replay(Generic[T]):
    """The outcome of :meth:`JournalFile.replay`."""

    base: T
    replayed: int
    report: SalvageReport


def lattice_from_checkpoint(
    state: dict | None, policy: LatticePolicy | None = None
) -> TypeLattice:
    """The lattice a checkpoint holds, or an empty one without one."""
    return lattice_from_dict(state) if state is not None \
        else TypeLattice(policy)


class JournalFile:
    """An append-only, checksummed record log with checkpointing."""

    def __init__(
        self,
        path: str | Path,
        *,
        durability: DurabilityPolicy | None = None,
        fs: StorageFS | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.path = storage_path(path)
        self.checkpoint_path = self.path.with_suffix(
            self.path.suffix + ".checkpoint"
        )
        self.durability = durability or DurabilityPolicy()
        self.fs = fs or RealFS()
        self.retry = retry or RetryPolicy()
        self.latch = DegradedLatch(store=str(self.path))
        #: Optional write fence, checked before every append and
        #: checkpoint.  Replication installs the primary lease's
        #: ``check`` here so a paused-and-resumed ex-primary raises
        #: :class:`~repro.core.errors.LeaseLostError` instead of
        #: extending a history the new primary has diverged from.
        self.fence: Callable[[], None] | None = None
        #: Records logged since the last checkpoint (interval policy).
        self.since_checkpoint = 0
        self._replay_overran = False
        self._generation: int | None = None
        self._tail_checked = False

    @property
    def degraded(self) -> bool:
        """Whether the log is latched read-only after append failure."""
        return self.latch.degraded

    @property
    def generation(self) -> int:
        """The current checkpoint generation new appends are stamped with."""
        if self._generation is None:
            _, self._generation = load_checkpoint(
                self.checkpoint_path, fs=self.fs
            )
        return self._generation

    def _ensure_clean_tail(self) -> None:
        """Heal a torn tail before the first append of this process.

        Appending after an unterminated final line would concatenate the
        new record onto the crash residue and corrupt *both*; repair
        first (strict: a damaged interior should fail loudly here, not
        be buried under fresh appends).
        """
        if self._tail_checked:
            return
        self._tail_checked = True
        if self.fs.exists(self.path):
            data = self.fs.read_bytes(self.path)
            if data and not data.endswith(b"\n"):
                self.repair("strict")

    def append(self, operation: SchemaOperation) -> None:
        """Append one framed operation record and fsync it.

        Transient storage faults (an fsync EIO, a short write) are
        retried with rollback per :attr:`retry`; exhausted retries trip
        the degraded-mode latch and raise a typed
        :class:`~repro.core.errors.DegradedModeError` — the log is never
        left with a half-appended record in front of a whole one.
        """
        started = perf_counter()
        self.latch.check_writable()
        if self.fence is not None:
            self.fence()
        self._ensure_clean_tail()
        payload = json.dumps(operation.to_dict(), sort_keys=True)
        append_record(
            self.fs,
            self.path,
            encode_frame(payload, self.generation),
            retry=self.retry,
            latch=self.latch,
        )
        _WAL_APPENDS.inc()
        _WAL_APPEND_SECONDS.observe(perf_counter() - started)

    def operations(self, mode: str = "strict") -> list[SchemaOperation]:
        """The live logged operations, in order (read-only).

        Torn trailing writes are tolerated and records fenced off by the
        checkpoint generation are skipped; structural corruption raises
        :class:`~repro.core.errors.CorruptRecordError` in strict mode.
        A final record that verifies but decodes to no valid operation
        is *schema* corruption, not a torn write, and is treated as
        corrupt no matter where it sits.
        """
        records, _ = read_log(
            self.path, fs=self.fs, mode=mode, decode=operation_from_dict
        )
        live, _ = fence_records(records, self.generation)
        return [r.decoded for r in live]

    def _heal(self, mode: str) -> tuple[list[FramedRecord], SalvageReport]:
        """Heal crash residue, then read and fence the log once.

        Removes a stale checkpoint temp file — residue of a crash (or
        torn rename) inside a checkpoint publish; the real checkpoint is
        authoritative either way, and a leftover temp would hand backup
        tooling a plausible-looking but unterminated snapshot — and
        repairs the log in place (torn tails truncated; in salvage mode,
        corruption quarantined into a ``.corrupt`` sidecar).
        """
        stale_tmp = self.checkpoint_path.with_suffix(
            self.checkpoint_path.suffix + ".tmp"
        )
        if self.fs.exists(stale_tmp):
            logger.warning(
                "removing stale checkpoint temp %s (crash residue from "
                "an interrupted checkpoint publish)", stale_tmp,
            )
            self.fs.unlink(stale_tmp)
        records, report = read_log(
            self.path, fs=self.fs, mode=mode,
            decode=operation_from_dict, repair=True,
        )
        self._tail_checked = True
        live, report.records_fenced = fence_records(records, self.generation)
        if not report.clean:
            logger.warning("recovery(%s): %s", mode, report.summary())
        return live, report

    def repair(self, mode: str = "strict") -> SalvageReport:
        """Heal the log in place without replaying it (``repro recover``)."""
        return self._heal(mode)[1]

    def replay(
        self,
        load: Callable[[dict | None], T],
        apply: Callable[[T, FramedRecord], None],
        mode: str = "strict",
    ) -> Replay[T]:
        """Rebuild a store from its durable files: the one recovery path.

        Loads the checkpoint once (``load(state)`` builds the base from
        it; ``state`` is ``None`` when there is none), heals crash
        residue and reads and fences the log once (:meth:`repair`'s
        work), then hands each live record to ``apply(base, record)``.

        A replay slower than the policy's ``replay_budget_seconds``
        makes the next :meth:`auto_checkpoint` fold the tail away.
        """
        state, self._generation = load_checkpoint(
            self.checkpoint_path, fs=self.fs
        )
        base = load(state)
        live, report = self._heal(mode)
        started = perf_counter()
        for record in live:
            apply(base, record)
        elapsed = perf_counter() - started
        replayed = len(live)
        self.since_checkpoint = replayed
        budget = self.durability.replay_budget_seconds
        self._replay_overran = (
            replayed > 0 and budget is not None and elapsed > budget
        )
        if replayed:
            _WAL_REPLAY_OPS.inc(replayed)
            _WAL_COALESCED.observe(replayed)
            _WAL_REPLAY_SECONDS.observe(elapsed)
            logger.info(
                "replayed %d WAL record(s) from %s in %.3fs",
                replayed, self.path, elapsed,
            )
        return Replay(base, replayed, report)

    def checkpoint(
        self, state: dict | None, *, generation: int | None = None
    ) -> None:
        """Fold the applied records into an atomic checkpoint holding the
        document ``state`` (a lattice as :func:`lattice_to_dict` writes it).

        The checkpoint is written to a temp file, fsynced, renamed into
        place and the directory fsynced; only then is the WAL truncated.
        Records appended before the checkpoint carry an older generation
        than the one stamped into it, so a crash *between* the rename
        and the truncate cannot double-apply the tail on recovery — the
        fence skips it.  ``generation`` defaults to the next one; a
        replica installs its primary's instead.
        """
        if self.fence is not None:
            self.fence()
        if generation is None:
            generation = self.generation + 1
        write_checkpoint(
            self.checkpoint_path, state, generation, fs=self.fs
        )
        self._generation = generation
        self.fs.write_bytes(self.path, b"")
        timed_fsync(self.fs, self.path)
        self.since_checkpoint = 0
        self._replay_overran = False
        _WAL_CHECKPOINTS.inc()
        logger.info(
            "checkpointed %s (generation %d); WAL truncated",
            self.checkpoint_path, generation,
        )

    def auto_checkpoint(self, lattice: TypeLattice, written: int = 0) -> None:
        """Count ``written`` records just logged, then checkpoint
        ``lattice`` if the durability policy asks for it.

        Stores call this once after opening (``written=0``) and after
        every write.  The open-time call acts on a replay that overran
        ``replay_budget_seconds``; ``checkpoint_every`` is checked only
        when records were written, so opening alone never writes for it.
        The lattice is serialized only when a checkpoint is written.
        """
        self.since_checkpoint += written
        every = self.durability.checkpoint_every
        if self._replay_overran:
            reason = "replay-budget"
        elif written and every is not None \
                and self.since_checkpoint >= every:
            reason = "interval"
        else:
            return
        logger.info(
            "auto-checkpoint (%s) after %d record(s)",
            reason, self.since_checkpoint,
        )
        self.checkpoint(lattice_to_dict(lattice))
        _WAL_AUTO_CHECKPOINTS.labels(reason=reason).inc()

    def recover(
        self, policy: LatticePolicy | None = None, mode: str = "strict"
    ) -> TypeLattice:
        """Rebuild the lattice: load the checkpoint (if any), then replay
        the live tail of the log."""
        return self.replay(
            lambda state: lattice_from_checkpoint(state, policy),
            lambda lattice, record: record.decoded.apply(lattice),
            mode,
        ).base


def _replay_operation(journal: EvolutionJournal, record: FramedRecord) -> None:
    journal.apply(record.decoded)


class DurableLattice:
    """An :class:`EvolutionJournal` wired to a :class:`JournalFile`.

    Every applied operation is logged *before* the in-memory journal
    records it as done (write-ahead), so recovery never misses an applied
    change.

    Replay is *batched*: recovery applies the whole WAL tail without ever
    touching a derived term, so the lattice's invalidations coalesce in
    its dirty set and the first post-open query pays a single derivation
    pass — reopening a database costs O(plan), not O(plan × schema).
    The tail is replayed *through* the in-memory journal so history (and
    undo) survive a restart.

    ``durability`` selects the auto-checkpoint policy and
    ``recovery`` the damage response (``"strict"`` raises on corruption,
    ``"salvage"`` quarantines it); the outcome of opening is recorded in
    :attr:`recovery_report`.

    The full :class:`~repro.core.transactions.SchemaTransaction` protocol
    is supported (``apply``/``undo``/``__len__``/``lattice``), so atomic
    batches work directly against durable storage::

        with SchemaTransaction(durable) as txn:
            txn.apply(...)
    """

    def __init__(
        self,
        path: str | Path,
        policy: LatticePolicy | None = None,
        *,
        durability: DurabilityPolicy | None = None,
        recovery: str = "strict",
        fs: StorageFS | None = None,
        retry: RetryPolicy | None = None,
    ) -> None:
        self.file = JournalFile(
            path, durability=durability, fs=fs, retry=retry
        )
        replay = self.file.replay(
            lambda state: EvolutionJournal(
                lattice=lattice_from_checkpoint(state, policy)
            ),
            _replay_operation,
            recovery,
        )
        self.journal = replay.base
        self.recovery_report = replay.report
        self.file.auto_checkpoint(self.lattice)

    @property
    def lattice(self) -> TypeLattice:
        return self.journal.lattice

    @property
    def degraded(self) -> bool:
        """Whether the store is latched read-only (see :class:`JournalFile`)."""
        return self.file.degraded

    def __len__(self) -> int:
        return len(self.journal)

    def apply(self, operation: SchemaOperation):
        """Validate, log (write-ahead), then apply."""
        operation.validate(self.lattice)
        self.file.append(operation)
        result = self.journal.apply(operation)
        self.file.auto_checkpoint(self.lattice, 1)
        return result

    def apply_all(self, operations):
        """Apply a batch; invalidations coalesce into one later pass."""
        return [self.apply(op) for op in operations]

    def undo(self):
        """Undo the last operation, keeping the WAL replay-consistent.

        The recorded inverse operations are appended to the log *before*
        the in-memory undo (write-ahead, like ``apply``): a replay then
        re-executes the original operation followed by its inverses and
        lands in the same state.
        """
        if not len(self.journal):
            raise NothingToUndoError("nothing to undo")
        inverse = self.journal.entries[-1].inverse
        for op in inverse:
            self.file.append(op)
        result = self.journal.undo()
        self.file.auto_checkpoint(self.lattice, len(inverse))
        return result

    def checkpoint(self) -> None:
        self.file.checkpoint(lattice_to_dict(self.lattice))

    @classmethod
    def reopen(
        cls,
        path: str | Path,
        policy: LatticePolicy | None = None,
        *,
        durability: DurabilityPolicy | None = None,
        recovery: str = "strict",
        fs: StorageFS | None = None,
        retry: RetryPolicy | None = None,
    ) -> "DurableLattice":
        """Simulated restart: rebuild purely from durable state."""
        return cls(
            path, policy, durability=durability, recovery=recovery,
            fs=fs, retry=retry,
        )
