"""Concurrency layer: lock-free reads, fair single-writer mutation.

The axiomatic engine itself is single-threaded by design — every
mutation funnels through one journal, and the incremental derivation
cache assumes one writer.  This module makes that engine safe to share
across threads (the HTTP service in :mod:`repro.server`, or any embedder
with worker threads) without giving up either property:

* **Reads never lock.**  :class:`ConcurrentObjectbase` publishes an
  immutable :class:`SchemaSnapshot` after every successful mutation;
  readers grab the current snapshot reference (one atomic load) and
  query it freely.  A reader therefore always sees a *consistent*
  schema — the designer terms and the derived terms of one moment —
  never a half-applied batch.
* **Writes serialize through a fair lock.**  :class:`FairLock` is a
  FIFO ticket lock: writers are granted the lock strictly in arrival
  order (no barging, no starvation), and a writer that waits longer
  than its timeout gets a typed
  :class:`~repro.core.errors.LockTimeoutError` — machine-readable
  (``lock-timeout``), mapped to HTTP 503 + ``Retry-After`` by the
  service — with the guarantee that nothing was admitted, so retrying
  is always safe.
* **Snapshots are copy-on-write.**  Publishing after a small mutation
  reuses every untouched entry of the previous snapshot by object
  identity (the incremental derivation engine recreates row objects
  exactly for the types it recomputed), so publish cost is O(cone),
  matching the engine it rides on.

Degraded mode composes: when the storage layer exhausts its retry
budget (:mod:`repro.storage.reliability`) the underlying store latches
read-only and writers see :class:`~repro.core.errors.DegradedModeError`;
reads keep serving the last published snapshot.  :meth:`recover` heals
the WAL (salvage), reopens the backend, and republishes.
"""

from __future__ import annotations

import threading
from collections import deque
from pathlib import Path
from time import perf_counter
from typing import Callable, Iterable, Iterator

from .api import Objectbase, TermCard
from .core.config import LatticePolicy
from .core.derivation import Derivation
from .core.errors import LockTimeoutError, UnknownTypeError
from .core.lattice import TypeLattice
from .core.operations import OperationResult, SchemaOperation
from .core.properties import Property
from .obs.metrics import REGISTRY
from .storage.faults import StorageFS
from .storage.framing import DurabilityPolicy, SalvageReport
from .storage.reliability import RetryPolicy

__all__ = ["FairLock", "SchemaSnapshot", "ConcurrentObjectbase"]

_LOCK_ACQUISITIONS = REGISTRY.counter(
    "repro_lock_acquisitions_total",
    "Successful write-lock acquisitions",
)
_LOCK_TIMEOUTS = REGISTRY.counter(
    "repro_lock_timeouts_total",
    "Write-lock waits abandoned at the timeout",
)
_LOCK_WAIT_SECONDS = REGISTRY.histogram(
    "repro_lock_wait_seconds",
    "Time writers spent waiting for the single-writer lock",
)
_LOCK_QUEUE_DEPTH = REGISTRY.gauge(
    "repro_lock_queue_depth",
    "Writers currently queued behind the single-writer lock",
)
_SNAPSHOT_PUBLISHES = REGISTRY.counter(
    "repro_snapshot_publishes_total",
    "Immutable schema snapshots published after mutations",
)
_SNAPSHOT_UNCHANGED = REGISTRY.counter(
    "repro_snapshot_unchanged_total",
    "Publish attempts that reused the previous snapshot unchanged",
)


class FairLock:
    """A FIFO (ticket) mutex with timeout.

    Unlike :class:`threading.Lock`, waiters are granted the lock in
    strict arrival order: release *hands the lock off* to the oldest
    waiter rather than unlocking and letting the scheduler race.  A
    timed-out waiter raises :class:`LockTimeoutError` after removing
    itself from the queue, so an abandoned wait can never absorb a
    hand-off (the hand-off/timeout race is resolved under the internal
    mutex: a waiter signalled *between* its timeout and its cleanup
    takes the lock after all).
    """

    def __init__(self) -> None:
        self._mutex = threading.Lock()
        self._locked = False
        self._waiters: deque[threading.Event] = deque()

    @property
    def locked(self) -> bool:
        return self._locked

    @property
    def waiters(self) -> int:
        """Writers currently queued (approximate outside the lock)."""
        return len(self._waiters)

    def acquire(self, timeout: float | None = None) -> None:
        """Take the lock, waiting at most ``timeout`` seconds.

        Raises :class:`LockTimeoutError` when the wait expires; the
        caller was never granted the lock, so no cleanup is needed.
        """
        with self._mutex:
            if not self._locked and not self._waiters:
                self._locked = True
                _LOCK_ACQUISITIONS.inc()
                return
            ticket = threading.Event()
            self._waiters.append(ticket)
            _LOCK_QUEUE_DEPTH.set(len(self._waiters))
        started = perf_counter()
        granted = ticket.wait(timeout)
        waited = perf_counter() - started
        if not granted:
            with self._mutex:
                # Re-check under the mutex: release() may have handed us
                # the lock after wait() gave up but before we got here.
                if not ticket.is_set():
                    self._waiters.remove(ticket)
                    _LOCK_QUEUE_DEPTH.set(len(self._waiters))
                    _LOCK_TIMEOUTS.inc()
                    raise LockTimeoutError(
                        timeout if timeout is not None else 0.0,
                        waiters=len(self._waiters),
                    )
        _LOCK_WAIT_SECONDS.observe(waited)
        _LOCK_ACQUISITIONS.inc()

    def release(self) -> None:
        """Release, handing the lock to the oldest waiter if any."""
        with self._mutex:
            if not self._locked:
                raise RuntimeError("release of an unheld FairLock")
            if self._waiters:
                # Hand-off: the lock stays held, ownership transfers.
                ticket = self._waiters.popleft()
                _LOCK_QUEUE_DEPTH.set(len(self._waiters))
                ticket.set()
            else:
                self._locked = False

    def __enter__(self) -> "FairLock":
        self.acquire()
        return self

    def __exit__(self, *exc) -> None:
        self.release()


class SchemaSnapshot:
    """An immutable, consistent view of one schema moment.

    Carries the designer terms (``Pe``/``Ne``) *and* the derived
    :class:`Derivation` captured together under the write lock, so any
    combination of queries against one snapshot is mutually consistent.
    Construct through :meth:`capture`.
    """

    __slots__ = (
        "_pe", "_ne", "derivation", "generation", "root", "base", "frozen",
    )

    def __init__(
        self,
        pe: dict[str, frozenset[str]],
        ne: dict[str, "frozenset[Property]"],
        derivation: Derivation,
        generation: int,
        root: str | None = None,
        base: str | None = None,
        frozen: frozenset[str] = frozenset(),
    ) -> None:
        self._pe = pe
        self._ne = ne
        self.derivation = derivation
        self.generation = generation
        #: Policy facts frozen into the snapshot so the DDL differ can
        #: diff against it without touching the live lattice.
        self.root = root
        self.base = base
        self.frozen = frozen

    @classmethod
    def capture(
        cls, lattice: TypeLattice, previous: "SchemaSnapshot | None" = None
    ) -> "SchemaSnapshot":
        """Snapshot ``lattice`` now, reusing ``previous`` where possible.

        Must run while no concurrent mutation is possible (the caller
        holds the write lock).  Forces any pending incremental
        propagation, then copies only the entries whose derived rows
        were recomputed — the engine builds fresh row objects exactly
        for the cone it touched, so identity comparison against
        ``previous`` finds the delta without comparing values.
        """
        deriv = lattice.derivation
        if previous is not None and deriv is previous.derivation:
            _SNAPSHOT_UNCHANGED.inc()
            return previous
        if previous is None:
            pe = {t: lattice.pe(t) for t in deriv.pl}
            ne = {t: lattice.ne(t) for t in deriv.pl}
        else:
            old = previous.derivation
            pe = dict(previous._pe)
            ne = dict(previous._ne)
            for t in list(pe):
                if t not in deriv.pl:
                    del pe[t]
                    del ne[t]
            for t in deriv.pl:
                if (
                    t not in pe
                    or deriv.pl[t] is not old.pl.get(t)
                    or deriv.i[t] is not old.i.get(t)
                ):
                    pe[t] = lattice.pe(t)
                    ne[t] = lattice.ne(t)
        _SNAPSHOT_PUBLISHES.inc()
        return cls(
            pe, ne, deriv, lattice.generation,
            root=lattice.root,
            base=lattice.base,
            frozen=frozenset(
                t for t in lattice.types() if lattice.is_frozen(t)
            ),
        )

    # -- queries (all lock-free, all mutually consistent) ---------------

    def types(self) -> frozenset[str]:
        return frozenset(self._pe)

    def __contains__(self, name: str) -> bool:
        return name in self._pe

    def __len__(self) -> int:
        return len(self._pe)

    def pe(self, name: str) -> frozenset[str]:
        self._require(name)
        return self._pe[name]

    def ne(self, name: str) -> "frozenset[Property]":
        self._require(name)
        return self._ne[name]

    def card(self, name: str) -> TermCard:
        """All Table-1 terms of ``name``, from this one moment."""
        self._require(name)
        d = self.derivation
        return TermCard(
            name=name,
            pe=self._pe[name],
            ne=self._ne[name],
            p=d.p[name],
            pl=d.pl[name],
            n=d.n[name],
            h=d.h[name],
            i=d.i[name],
        )

    def cards(self) -> Iterator[TermCard]:
        for t in sorted(self._pe):
            yield self.card(t)

    def _require(self, name: str) -> None:
        if name not in self._pe:
            raise UnknownTypeError(name)

    def __repr__(self) -> str:
        return (
            f"SchemaSnapshot(|T|={len(self._pe)}, "
            f"generation={self.generation})"
        )


class ConcurrentObjectbase:
    """A thread-safe shell around :class:`~repro.api.Objectbase`.

    Reads (:meth:`snapshot`, :meth:`card`, :meth:`types`, ...) never
    block: they serve from the last published :class:`SchemaSnapshot`.
    Mutations (:meth:`apply`, :meth:`apply_batch`, :meth:`undo`,
    :meth:`normalize`, :meth:`checkpoint`) serialize through a
    :class:`FairLock` with a configurable ``lock_timeout`` and publish a
    fresh snapshot before releasing it.

    The wrapped facade must not be mutated directly once wrapped —
    every write must go through this object, or readers may observe a
    stale snapshot indefinitely.
    """

    def __init__(
        self,
        objectbase: Objectbase,
        *,
        lock_timeout: float = 5.0,
        _reopen: Callable[[], Objectbase] | None = None,
    ) -> None:
        self._ob = objectbase
        self._lock = FairLock()
        self.lock_timeout = lock_timeout
        self._reopen = _reopen
        self._fence: Callable[[], None] | None = None
        self._snapshot = SchemaSnapshot.capture(objectbase.lattice)

    # -- constructors ---------------------------------------------------

    @classmethod
    def open(
        cls,
        path: str | Path,
        policy: LatticePolicy | None = None,
        *,
        durability: DurabilityPolicy | None = None,
        recovery: str = "strict",
        retry: RetryPolicy | None = None,
        fs: StorageFS | None = None,
        lock_timeout: float = 5.0,
    ) -> "ConcurrentObjectbase":
        """Open a durable objectbase and wrap it for concurrent use.

        Remembers the open parameters so :meth:`recover` can heal and
        reopen the same store in place (salvage mode).
        """

        def reopen() -> Objectbase:
            return Objectbase.open(
                path, policy, durability=durability, recovery="salvage",
                retry=retry, fs=fs,
            )

        return cls(
            Objectbase.open(
                path, policy, durability=durability, recovery=recovery,
                retry=retry, fs=fs,
            ),
            lock_timeout=lock_timeout,
            _reopen=reopen,
        )

    @classmethod
    def in_memory(
        cls,
        policy: LatticePolicy | None = None,
        *,
        lock_timeout: float = 5.0,
    ) -> "ConcurrentObjectbase":
        return cls(Objectbase.in_memory(policy), lock_timeout=lock_timeout)

    # -- lock-free reads ------------------------------------------------

    @property
    def snapshot(self) -> SchemaSnapshot:
        """The current published snapshot (one atomic reference load)."""
        return self._snapshot

    def types(self) -> frozenset[str]:
        return self._snapshot.types()

    def __contains__(self, name: str) -> bool:
        return name in self._snapshot

    def __len__(self) -> int:
        return len(self._snapshot)

    def card(self, name: str) -> TermCard:
        return self._snapshot.card(name)

    @property
    def durable(self) -> bool:
        return self._ob.durable

    @property
    def degraded(self) -> bool:
        """Whether the store is latched read-only (reads still served)."""
        return self._ob.degraded

    @property
    def recovery_report(self) -> SalvageReport | None:
        return self._ob.recovery_report

    # -- serialized writes ----------------------------------------------

    def _write(self, fn: Callable[[], object], timeout: float | None = None):
        self._lock.acquire(
            timeout if timeout is not None else self.lock_timeout
        )
        try:
            return fn()
        finally:
            # Publish even after a rejected mutation: a failed batch has
            # rolled back through inverses and the lattice may carry a
            # fresh derivation; capture() reuses the old snapshot when
            # nothing actually changed.
            self._snapshot = SchemaSnapshot.capture(
                self._ob.lattice, self._snapshot
            )
            self._lock.release()

    def apply(
        self,
        operation: SchemaOperation,
        *,
        timeout: float | None = None,
        gate: Callable[[TypeLattice], None] | None = None,
    ) -> OperationResult:
        """Apply one operation under the write lock; publish on success.

        ``gate``, if given, runs *under the lock* against the live
        lattice before anything is mutated; raising from it aborts the
        write atomically (the service's admission-time lint gate rides
        on this — the schema it analyzes is exactly the schema the
        operation would execute against).
        """

        def run() -> OperationResult:
            if gate is not None:
                gate(self._ob.lattice)
            return self._ob.apply(operation)

        return self._write(run, timeout)

    def apply_batch(
        self,
        operations: Iterable[SchemaOperation],
        *,
        verify_on_commit: bool = True,
        timeout: float | None = None,
        gate: Callable[[TypeLattice], None] | None = None,
    ) -> list[OperationResult]:
        """Apply a whole batch atomically (one lock hold, one publish).

        Readers never observe an intermediate state: the snapshot is
        republished only after the transaction commits (or rolls back).
        ``gate`` behaves as in :meth:`apply`: pre-mutation veto under
        the lock.
        """

        def run() -> list[OperationResult]:
            if gate is not None:
                gate(self._ob.lattice)
            with self._ob.batch(verify_on_commit=verify_on_commit) as txn:
                return [txn.apply(op) for op in operations]

        return self._write(run, timeout)

    # -- declarative schema (DDL) ---------------------------------------

    def schema_ddl(self, name: str = "") -> str:
        """The published schema as canonical DDL text (lock-free)."""
        from .ddl.differ import schema_from
        from .ddl.printer import print_schema

        return print_schema(schema_from(self._snapshot, name=name))

    def diff_to(self, target, *, name: str = ""):
        """Diff the *published* snapshot against ``target`` (lock-free).

        Advisory by nature: a writer may commit between this diff and a
        later :meth:`migrate_to` (which re-diffs under the lock against
        the live lattice).  Pair with ``snapshot.generation`` and the
        service's ``expect_generation`` check to detect that race.
        """
        from .ddl.differ import diff_schemas

        return diff_schemas(self._snapshot, target, name=name)

    def migrate_to(
        self,
        target,
        *,
        dry_run: bool = False,
        verify_on_commit: bool = True,
        lint: str = "error",
        gate=None,
        timeout: float | None = None,
    ):
        """Declarative migration under the write lock (one publish).

        Diff, lint gate, and apply all run while the lock is held, so
        the delta is computed against exactly the schema it executes on
        and readers only ever observe the before or after state.  See
        :meth:`Objectbase.migrate_to` for the parameters.
        """

        def run():
            return self._ob.migrate_to(
                target,
                dry_run=dry_run,
                verify_on_commit=verify_on_commit,
                lint=lint,
                gate=gate,
            )

        return self._write(run, timeout)

    def undo(self, *, timeout: float | None = None):
        return self._write(self._ob.undo, timeout)

    def normalize(self, *, timeout: float | None = None):
        return self._write(self._ob.normalize, timeout)

    def checkpoint(self, *, timeout: float | None = None) -> None:
        return self._write(self._ob.checkpoint, timeout)

    def set_write_fence(self, fence: Callable[[], None] | None) -> None:
        """Install (or clear, with ``None``) a write fence on the WAL.

        The fence runs before every append and checkpoint; raising from
        it aborts the write.  Replication installs the primary lease's
        ``check`` here so an ex-primary that lost its lease is stopped
        at the append boundary.  Survives :meth:`recover` (the fence is
        reattached to the reopened backend).
        """
        jf = getattr(getattr(self._ob, "_journal", None), "file", None)
        if jf is None:
            raise ValueError("write fences require a durable store")
        self._fence = fence
        jf.fence = fence

    def recover(self, *, timeout: float | None = None) -> SalvageReport | None:
        """Heal the store and leave degraded mode (if it was entered).

        Durable stores are reopened from disk in salvage mode: the WAL
        is repaired (torn tails truncated, corruption quarantined), the
        lattice rebuilt from exactly the acknowledged records, and a
        fresh snapshot published.  Rebuilding from disk — rather than
        merely clearing the latch — guarantees the in-memory state and
        the log agree again even if a partial append could not be rolled
        back.  In-memory stores have nothing to heal; the call is a
        no-op that returns ``None``.
        """

        def run() -> SalvageReport | None:
            if self._reopen is not None:
                previous = self._ob
                self._ob = self._reopen()
                # The reopened backend has a fresh (clear) latch; end the
                # old store's degraded episode so the gauge drops too.
                old_latch = getattr(
                    getattr(previous._journal, "file", None), "latch", None
                )
                if old_latch is not None:
                    old_latch.clear()
                if self._fence is not None:
                    new_file = getattr(
                        getattr(self._ob, "_journal", None), "file", None
                    )
                    if new_file is not None:
                        new_file.fence = self._fence
            return self._ob.recovery_report

        return self._write(run, timeout)

    def __repr__(self) -> str:
        kind = "durable" if self.durable else "in-memory"
        state = "degraded" if self.degraded else "ok"
        return (
            f"ConcurrentObjectbase({kind}, {state}, "
            f"|T|={len(self._snapshot)})"
        )
