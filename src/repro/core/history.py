"""Evolution history: a journal of applied operations with undo and replay.

Dynamic schema evolution happens "while the system is in operation"
(Section 1), so a production objectbase needs an auditable record of every
schema change.  :class:`EvolutionJournal` wraps a
:class:`~repro.core.lattice.TypeLattice` and

* records every applied operation together with its inverse,
* supports ``undo``/``redo`` through the recorded inverses,
* can ``replay`` the whole history onto a fresh lattice (the recovery path
  used by :mod:`repro.storage.journal`), and
* optionally verifies all nine axioms after every step
  (``verify_each_step=True``), turning the journal into a self-checking
  evolution executor.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Iterable

from ..obs.metrics import REGISTRY
from .axioms import assert_all
from .config import LatticePolicy
from .errors import (
    EvolutionError,
    JournalError,
    NothingToUndoError,
    error_code,
)
from .lattice import TypeLattice
from .operations import (
    OperationResult,
    SchemaOperation,
    operation_from_dict,
)

__all__ = ["JournalEntry", "EvolutionJournal"]

logger = logging.getLogger(__name__)

_OPS_APPLIED = REGISTRY.counter(
    "repro_ops_applied_total",
    "Schema-evolution operations applied, by paper operation code",
    ("op",),
)
_OP_SECONDS = REGISTRY.histogram(
    "repro_op_latency_seconds",
    "Latency of one applied operation (designer-term mutation only; "
    "derivation is lazy and accounted separately)",
    ("op",),
)
_REJECTIONS = REGISTRY.counter(
    "repro_rejections_total",
    "Operations the engine rejected, by operation and error code",
    ("op", "code"),
)
_UNDOS = REGISTRY.counter(
    "repro_undos_total", "Operations reverted through recorded inverses"
)


@dataclass
class JournalEntry:
    """One applied operation, its outcome, and its inverse."""

    seq: int
    operation: SchemaOperation
    changed: bool
    detail: str
    inverse: list[SchemaOperation] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "operation": self.operation.to_dict(),
            "changed": self.changed,
            "detail": self.detail,
            "inverse": [op.to_dict() for op in self.inverse],
        }

    @classmethod
    def from_dict(cls, d: dict) -> "JournalEntry":
        return cls(
            seq=d["seq"],
            operation=operation_from_dict(d["operation"]),
            changed=d["changed"],
            detail=d.get("detail", ""),
            inverse=[operation_from_dict(o) for o in d.get("inverse", ())],
        )


class EvolutionJournal:
    """An executing journal over a lattice.

    Parameters
    ----------
    lattice:
        The lattice to evolve; created from ``policy`` when omitted.
    verify_each_step:
        When true, every applied operation is followed by a full check of
        the nine axioms; a violation raises immediately (and indicates an
        engine bug, since operations are supposed to preserve the axioms).
    listeners:
        Callables invoked with each new :class:`JournalEntry` — the hook
        used by the change-propagation layer.
    """

    def __init__(
        self,
        lattice: TypeLattice | None = None,
        policy: LatticePolicy | None = None,
        verify_each_step: bool = False,
    ) -> None:
        self._lattice = lattice if lattice is not None else TypeLattice(policy)
        self._entries: list[JournalEntry] = []
        self._redo_stack: list[SchemaOperation] = []
        self._verify = verify_each_step
        self._listeners: list[Callable[[JournalEntry], None]] = []

    @property
    def lattice(self) -> TypeLattice:
        return self._lattice

    @property
    def entries(self) -> tuple[JournalEntry, ...]:
        return tuple(self._entries)

    def __len__(self) -> int:
        return len(self._entries)

    def subscribe(self, listener: Callable[[JournalEntry], None]) -> None:
        """Register a listener called after every applied operation."""
        self._listeners.append(listener)

    # ------------------------------------------------------------------

    def apply(self, operation: SchemaOperation) -> OperationResult:
        """Apply one operation, record it, and clear the redo stack."""
        started = perf_counter()
        try:
            result = operation.apply(self._lattice)
            if self._verify:
                assert_all(self._lattice)
        except EvolutionError as exc:
            _REJECTIONS.labels(op=operation.code, code=error_code(exc)).inc()
            logger.info(
                "rejected %s [%s]: %s",
                operation.describe(), error_code(exc), exc,
            )
            raise
        _OPS_APPLIED.labels(op=operation.code).inc()
        _OP_SECONDS.labels(op=operation.code).observe(
            perf_counter() - started
        )
        logger.debug("applied %s", operation.describe())
        entry = JournalEntry(
            seq=len(self._entries),
            operation=operation,
            changed=result.changed,
            detail=result.detail,
            inverse=list(result.inverse),
        )
        self._entries.append(entry)
        self._redo_stack.clear()
        for listener in self._listeners:
            listener(entry)
        return result

    def apply_all(
        self, operations: Iterable[SchemaOperation]
    ) -> list[OperationResult]:
        return [self.apply(op) for op in operations]

    def undo(self) -> JournalEntry:
        """Revert the most recent operation via its recorded inverse.

        The undone entry is removed from the history and pushed on the
        redo stack.  Undoing past the beginning raises
        :class:`NothingToUndoError`.
        """
        if not self._entries:
            raise NothingToUndoError("nothing to undo")
        entry = self._entries.pop()
        for op in entry.inverse:
            op.apply(self._lattice)
        if self._verify:
            assert_all(self._lattice)
        self._redo_stack.append(entry.operation)
        _UNDOS.inc()
        logger.debug("undid %s", entry.operation.describe())
        return entry

    def redo(self) -> OperationResult:
        """Re-apply the most recently undone operation."""
        if not self._redo_stack:
            raise JournalError("nothing to redo")
        operation = self._redo_stack.pop()
        result = operation.apply(self._lattice)
        if self._verify:
            assert_all(self._lattice)
        self._entries.append(
            JournalEntry(
                seq=len(self._entries),
                operation=operation,
                changed=result.changed,
                detail=result.detail,
                inverse=list(result.inverse),
            )
        )
        return result

    # ------------------------------------------------------------------

    def replay(
        self, policy: LatticePolicy | None = None
    ) -> TypeLattice:
        """Re-execute the recorded history onto a fresh lattice.

        The resulting lattice must match the live one state-for-state;
        a mismatch raises :class:`JournalError` (a corrupt journal).
        """
        target_policy = policy if policy is not None else self._lattice.policy
        fresh = TypeLattice(target_policy)
        for entry in self._entries:
            entry.operation.apply(fresh)
        if fresh.state_fingerprint() != self._lattice.state_fingerprint():
            raise JournalError(
                "replayed lattice does not match the live lattice"
            )
        return fresh

    def to_dicts(self) -> list[dict]:
        """The serializable journal (for :mod:`repro.storage.journal`)."""
        return [entry.to_dict() for entry in self._entries]

    @classmethod
    def from_dicts(
        cls,
        records: Iterable[dict],
        policy: LatticePolicy | None = None,
        verify_each_step: bool = False,
    ) -> "EvolutionJournal":
        """Reconstruct a journal (and its lattice) by replaying records."""
        journal = cls(policy=policy, verify_each_step=verify_each_step)
        for record in records:
            entry = JournalEntry.from_dict(record)
            journal.apply(entry.operation)
        return journal
