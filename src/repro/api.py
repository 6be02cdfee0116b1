"""The stable library facade: :class:`Objectbase`.

One import, one object, the whole evolution surface::

    from repro.api import Objectbase

    ob = Objectbase.open("schema.wal")        # durable (WAL-backed)
    ob = Objectbase.in_memory()               # or ephemeral

    ob.add_type("T_person", properties=["person.name"])
    ob.add_type("T_student", supertypes=["T_person"])
    ob.card("T_student").p                    # {'T_person'}

    with ob.batch():                          # atomic + one propagation pass
        ob.drop_supertype("T_ta", "T_student")
        ob.add_supertype("T_ta", "T_person")

    ob.migrate_to('''                         # or declare the target schema
        type T_person { ne person.name as name; }
        type T_student : T_person;
    ''')                                      # differ + lint gate + batch

Everything the scattered entry points offered (``core.operations``
command objects, ``storage.journal.DurableLattice``, the CLI's
plumbing) is reachable from here; the old entry points keep working but
new code should not need them.

Design notes
------------
* **One execution path.**  Every mutation — method call, raw
  :class:`~repro.core.operations.SchemaOperation` via :meth:`apply`,
  batch member, or :meth:`normalize` — funnels through the same journal
  (and WAL when durable), so history, undo, and replay see a complete
  record.
* **Batches are transactions.**  :meth:`batch` wraps
  :class:`~repro.core.transactions.SchemaTransaction`: all-or-nothing,
  verified against the nine axioms at commit.  Because operations only
  touch the designer terms ``Pe``/``Ne``, the lattice's incremental
  engine coalesces the whole batch into a single delta-propagation pass
  at the first derived-term access (commit-time verification or the
  caller's next query).
* **Queries are term cards.**  :meth:`card` returns every Table-1 term
  of one type (``Pe``/``Ne`` designer inputs, ``P``/``PL``/``N``/``H``/``I``
  derived) as one immutable snapshot.
"""

from __future__ import annotations

import logging
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator

from .core.axioms import Violation, check_all
from .core.config import LatticePolicy
from .core.errors import LintRejectedError
from .core.history import EvolutionJournal, JournalEntry
from .core.impact import ImpactReport, analyze_impact
from .core.lattice import TypeLattice
from .core.normalize import NormalizationReport, normalization_operations
from .core.operations import (
    AddEssentialProperty,
    AddEssentialSupertype,
    AddType,
    DropEssentialProperty,
    DropEssentialSupertype,
    DropPropertyEverywhere,
    DropType,
    OperationResult,
    SchemaOperation,
)
from .core.properties import Property
from .core.soundness import SoundnessReport, verify
from .core.transactions import SchemaTransaction, TransactionError
from .ddl.differ import diff_schemas, schema_from
from .ddl.printer import print_schema
from .obs.metrics import REGISTRY
from .obs.tracing import trace
from .staticcheck.analyzer import AnalysisReport, analyze, plan_rule_ids
from .staticcheck.plan import EvolutionPlan
from .staticcheck.registry import Severity
from .storage.faults import StorageFS
from .storage.framing import DurabilityPolicy, SalvageReport
from .storage.journal import DurableLattice
from .storage.reliability import RetryPolicy

if TYPE_CHECKING:  # pragma: no cover
    from .ddl.ast import SchemaDecl
    from .staticcheck.symbolic import PlanTrace

__all__ = [
    "Objectbase",
    "TermCard",
    "MigrationResult",
    "DurabilityPolicy",
    "run_lint_gate",
    "MIGRATE_LINT_MODES",
]

logger = logging.getLogger(__name__)

_MIGRATIONS = REGISTRY.counter(
    "repro_ddl_migrations_total",
    "Declarative migrations through Objectbase.migrate_to, by outcome",
    labelnames=("outcome",),
)

#: Lint-gate thresholds accepted by :meth:`Objectbase.migrate_to`.
MIGRATE_LINT_MODES = ("off", "info", "warn", "error")


@dataclass(frozen=True)
class TermCard:
    """Every Table-1 term of one type, as an immutable snapshot."""

    name: str
    #: designer-managed terms
    pe: frozenset[str]
    ne: frozenset[Property]
    #: derived terms (Axioms 5-9)
    p: frozenset[str]
    pl: frozenset[str]
    n: frozenset[Property]
    h: frozenset[Property]
    i: frozenset[Property]

    def as_dict(self) -> dict:
        """JSON-friendly form (property semantics keys, sorted)."""
        return {
            "name": self.name,
            "Pe": sorted(self.pe),
            "Ne": sorted(pr.semantics for pr in self.ne),
            "P": sorted(self.p),
            "PL": sorted(self.pl),
            "N": sorted(pr.semantics for pr in self.n),
            "H": sorted(pr.semantics for pr in self.h),
            "I": sorted(pr.semantics for pr in self.i),
        }


@dataclass(frozen=True)
class MigrationResult:
    """Everything one :meth:`Objectbase.migrate_to` call decided and did.

    ``plan`` is the differ's delta (empty when the schemas already
    agreed), ``report`` the lint-gate analysis it passed, ``applied``
    whether the plan was executed (``False`` for dry runs and empty
    plans), and ``results`` the per-operation outcomes of the applying
    batch.
    """

    plan: EvolutionPlan
    report: AnalysisReport
    applied: bool
    results: tuple[OperationResult, ...] = ()

    @property
    def changed(self) -> bool:
        """Whether the objectbase was actually mutated."""
        return self.applied and len(self.plan) > 0

    def summary(self) -> str:
        verb = "applied" if self.applied else "planned"
        return (
            f"{verb} {len(self.plan)} operation(s); "
            f"lint: {self.report.summary()}"
        )


def _coerce_prop(p: Property | str, name: str = "") -> Property:
    return p if isinstance(p, Property) else Property(p, name)


_LINT_THRESHOLDS = {
    "info": Severity.INFO,
    "warn": Severity.WARNING,
    "error": Severity.ERROR,
}


def run_lint_gate(
    lattice: TypeLattice, plan: EvolutionPlan, lint: str
) -> AnalysisReport:
    """Analyze ``plan`` against ``lattice`` and veto at the threshold.

    The shared admission gate behind :meth:`Objectbase.migrate_to`, the
    ``repro schema migrate`` CLI, and the server's ``POST /v1/migrate``.
    Only *plan-scope* findings (``step is not None``) can veto: a
    pre-existing schema-state advisory must not block every migration.
    So only the plan-scope rules run, and the report counts plan
    findings only; ``repro lint --plan`` runs the whole catalogue.
    Raises :class:`~repro.core.errors.LintRejectedError` (the offending
    plan rides on its ``.plan`` attribute) when findings reach the
    ``lint`` threshold (``"off"``/``"info"``/``"warn"``/``"error"``).
    The report carries the plan's symbolic trace (``report.trace``).
    """
    if lint not in MIGRATE_LINT_MODES:
        raise ValueError(
            f"lint must be one of {MIGRATE_LINT_MODES}, not {lint!r}"
        )
    report = analyze(lattice, plan, select=plan_rule_ids())
    if lint == "off":
        return report
    threshold = _LINT_THRESHOLDS[lint]
    offending = [
        d for d in report.diagnostics
        if d.step is not None and d.severity >= threshold
    ]
    if offending:
        exc = LintRejectedError(
            f"migration rejected by the lint gate (lint={lint}): "
            f"{len(offending)} finding(s) at or above {threshold}",
            [d.as_dict() for d in offending],
        )
        exc.plan = plan
        raise exc
    return report


class Objectbase:
    """The unified schema-evolution facade.

    Construct through :meth:`open` (durable, WAL-backed) or
    :meth:`in_memory` (ephemeral); wrapping an existing
    :class:`TypeLattice`, :class:`EvolutionJournal`, or
    :class:`DurableLattice` also works via the constructor.
    """

    def __init__(
        self,
        backend: TypeLattice | EvolutionJournal | DurableLattice | None = None,
        policy: LatticePolicy | None = None,
    ) -> None:
        if backend is None:
            backend = EvolutionJournal(policy=policy)
        elif isinstance(backend, TypeLattice):
            backend = EvolutionJournal(lattice=backend)
        # EvolutionJournal and DurableLattice share the execution protocol
        # SchemaTransaction relies on: apply / undo / __len__ / .lattice.
        self._journal = backend
        self._txn: SchemaTransaction | None = None

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
    ) -> "Objectbase":
        """Open (or create) a durable objectbase backed by a WAL file.

        ``path`` is the WAL's filesystem path; ``file:PATH`` is an alias
        for it (see ``docs/storage.md``).  The checkpoint lives next to
        it at ``<path>.checkpoint``.

        Recovery replays the journal in batch mode: the first query after
        opening pays one derivation pass, regardless of the plan length.

        Every applied operation is fsynced to the WAL before the call
        returns.  ``durability`` selects the auto-checkpoint policy
        (:class:`~repro.storage.framing.DurabilityPolicy`); ``recovery``
        chooses how on-disk damage is met — ``"strict"`` raises a typed
        :class:`~repro.core.errors.CorruptRecordError`, ``"salvage"``
        truncates to the last valid record and quarantines the rest (see
        ``docs/durability.md``).  :attr:`recovery_report` records the
        outcome.  ``retry`` governs how transient storage faults on the
        WAL append path are absorbed
        (:class:`~repro.storage.reliability.RetryPolicy`); when the
        budget is exhausted the store latches read-only (see
        :attr:`degraded`).  ``fs`` swaps the filesystem seam (fault
        injection in tests).
        """
        return cls(
            DurableLattice(
                path, policy, durability=durability, recovery=recovery,
                retry=retry, fs=fs,
            )
        )

    @classmethod
    def in_memory(cls, policy: LatticePolicy | None = None) -> "Objectbase":
        """A fresh, non-durable objectbase (TIGUKAT policy by default)."""
        return cls(policy=policy)

    # -- introspection --------------------------------------------------

    @property
    def lattice(self) -> TypeLattice:
        """The underlying type lattice (read it freely; mutate via ops)."""
        return self._journal.lattice

    @property
    def durable(self) -> bool:
        return isinstance(self._journal, DurableLattice)

    @property
    def degraded(self) -> bool:
        """Whether the store is latched read-only after storage failure.

        Always ``False`` for in-memory objectbases.  While ``True``,
        every mutation raises a typed
        :class:`~repro.core.errors.DegradedModeError`; reads keep
        serving the last consistent state.  ``repro recover`` (or
        reopening) restores service.
        """
        return bool(getattr(self._journal, "degraded", False))

    @property
    def recovery_report(self) -> SalvageReport | None:
        """What opening recovered/salvaged (durable objectbases only)."""
        return getattr(self._journal, "recovery_report", None)

    def types(self) -> frozenset[str]:
        return self.lattice.types()

    def __contains__(self, name: str) -> bool:
        return name in self.lattice

    def __len__(self) -> int:
        return len(self.lattice)

    def card(self, name: str) -> TermCard:
        """All Table-1 terms of ``name`` in one snapshot."""
        lat = self.lattice
        return TermCard(
            name=name,
            pe=lat.pe(name),
            ne=lat.ne(name),
            p=lat.p(name),
            pl=lat.pl(name),
            n=lat.n(name),
            h=lat.h(name),
            i=lat.interface(name),
        )

    def cards(self) -> Iterator[TermCard]:
        """Term cards for every type, in name order."""
        for t in sorted(self.types()):
            yield self.card(t)

    # -- the eight evolution operations ---------------------------------

    def apply(self, operation: SchemaOperation) -> OperationResult:
        """Apply a raw operation object (routes through an active batch).

        Produces one ``apply`` trace span (a child of the ``batch`` span
        when inside :meth:`batch`) carrying the operation code and the
        counter deltas the operation caused.
        """
        with trace.span("apply", op=operation.code) as span:
            if self._txn is not None:
                result = self._txn.apply(operation)
            else:
                result = self._journal.apply(operation)
            span.set_attr("changed", result.changed)
            return result

    def add_type(
        self,
        name: str,
        supertypes: Iterable[str] = (),
        properties: Iterable[Property | str] = (),
    ) -> OperationResult:
        """AT: create a type with essential supertypes/properties."""
        return self.apply(AddType(
            name,
            tuple(supertypes),
            tuple(_coerce_prop(p) for p in properties),
        ))

    def drop_type(self, name: str) -> OperationResult:
        """DT: drop a type; it leaves every ``Pe`` that listed it."""
        return self.apply(DropType(name))

    def add_supertype(self, subtype: str, supertype: str) -> OperationResult:
        """MT-ASR: add an essential supertype."""
        return self.apply(AddEssentialSupertype(subtype, supertype))

    def drop_supertype(self, subtype: str, supertype: str) -> OperationResult:
        """MT-DSR: drop an essential supertype."""
        return self.apply(DropEssentialSupertype(subtype, supertype))

    def add_property(
        self, type_name: str, p: Property | str, display_name: str = ""
    ) -> OperationResult:
        """MT-AB: add an essential property (semantics key or Property)."""
        return self.apply(
            AddEssentialProperty(type_name, _coerce_prop(p, display_name))
        )

    def drop_property(
        self, type_name: str, p: Property | str
    ) -> OperationResult:
        """MT-DB: drop an essential property from one type."""
        return self.apply(DropEssentialProperty(type_name, _coerce_prop(p)))

    def drop_property_everywhere(self, p: Property | str) -> OperationResult:
        """DB: drop a property from every ``Ne`` that lists it."""
        return self.apply(DropPropertyEverywhere(_coerce_prop(p)))

    # -- batched transactions -------------------------------------------

    @contextmanager
    def batch(
        self, verify_on_commit: bool = True
    ) -> Iterator[SchemaTransaction]:
        """Group operations atomically, with one propagation pass.

        All facade mutations inside the ``with`` block join the
        transaction: either every operation commits (verified against the
        nine axioms by default) or the whole group rolls back through the
        recorded inverses.  Invalidation is coalesced — the entire batch
        costs a single incremental derivation pass.
        """
        if self._txn is not None:
            raise TransactionError("a batch is already active")
        txn = SchemaTransaction(self._journal, verify_on_commit=verify_on_commit)
        self._txn = txn
        try:
            with trace.span("batch", verify=verify_on_commit) as span:
                with txn:
                    yield txn
                span.set_attr("operations", len(txn))
        finally:
            self._txn = None

    # -- checks, analysis, maintenance ----------------------------------

    def check(self) -> list[Violation]:
        """Check the nine axioms; an empty list means the schema is sound."""
        return check_all(self.lattice)

    def verify(self) -> SoundnessReport:
        """Run the soundness/completeness oracle (Theorems 2.1/2.2)."""
        return verify(self.lattice)

    def impact(self, operation: SchemaOperation) -> ImpactReport:
        """Dry-run ``operation``; never mutates the objectbase."""
        return analyze_impact(self.lattice, operation)

    def normalize(self) -> NormalizationReport:
        """Rewrite ``Pe``/``Ne`` to the minimal declarations, journaled.

        The rewrite is expressed as ordinary MT-DSR/MT-DB operations and
        executed through the journal (and the WAL when durable), so
        normalization is replayable, undoable, and visible in
        :meth:`history` — and its invalidations coalesce like any batch.
        Normalization preserves the derived lattice by construction, so
        the batch skips commit-time re-verification.
        """
        with trace.span("normalize") as span:
            ops = normalization_operations(self.lattice)
            dropped_supers = sum(
                1 for op in ops if isinstance(op, DropEssentialSupertype)
            )
            dropped_props = len(ops) - dropped_supers
            if ops:
                if self._txn is not None:
                    for op in ops:
                        self._txn.apply(op)
                else:
                    with self.batch(verify_on_commit=False) as txn:
                        txn.apply_all(ops)
            span.set_attr("operations", len(ops))
            logger.debug(
                "normalize dropped %d supertype and %d property "
                "declaration(s)", dropped_supers, dropped_props,
            )
            return NormalizationReport(dropped_supers, dropped_props)

    # -- declarative schema (DDL) ---------------------------------------

    def schema_ddl(self, name: str = "") -> str:
        """The live schema as canonical DDL text (see ``docs/ddl.md``).

        Round-trip stable: migrating to this text is always a no-op, and
        the output is byte-identical for equal schemas regardless of the
        operation history that produced them.
        """
        return print_schema(schema_from(self, name=name))

    def schema_decl(self, name: str = "") -> "SchemaDecl":
        """The live schema as a :class:`~repro.ddl.ast.SchemaDecl`."""
        return schema_from(self, name=name)

    def diff_to(
        self, target: "SchemaDecl | str", *, name: str = ""
    ) -> EvolutionPlan:
        """The minimal plan evolving this objectbase to ``target``.

        ``target`` is DDL text or a parsed
        :class:`~repro.ddl.ast.SchemaDecl`.  Nothing is applied — feed
        the plan to :meth:`migrate_to`, ``repro lint``, or
        :meth:`~repro.staticcheck.plan.EvolutionPlan.save`.  An empty
        plan means the schemas already agree.
        """
        return diff_schemas(self, target, name=name)

    def migrate_to(
        self,
        target: "SchemaDecl | str",
        *,
        dry_run: bool = False,
        verify_on_commit: bool = True,
        lint: str = "error",
        gate: "Callable[[TypeLattice, PlanTrace], None] | None" = None,
    ) -> MigrationResult:
        """Evolve the schema to match a declared target (diff + apply).

        The declarative top of the API: diff the live schema against
        ``target`` (DDL text or a parsed schema), run the resulting plan
        through the staticcheck lint gate, and apply it as one verified
        batch.  Idempotent — migrating twice to the same target is a
        no-op the second time.

        ``lint`` sets the gate threshold (``"off"``, ``"info"``,
        ``"warn"``, ``"error"``): plan findings at or above it raise
        :class:`~repro.core.errors.LintRejectedError` without touching
        the objectbase.  ``dry_run=True`` stops after diff + lint and
        returns the unapplied plan.  ``verify_on_commit`` is passed to
        the applying :meth:`batch`.  ``gate``, if given, receives the
        live lattice and the lint gate's symbolic trace of the computed
        plan after the lint gate passed and before anything is mutated;
        raising from it aborts the migration (the server's interference
        check rides on this, reusing the trace).
        """
        with trace.span("migrate", dry_run=dry_run, lint=lint) as span:
            plan = self.diff_to(target)
            span.set_attr("operations", len(plan))
            try:
                report = run_lint_gate(self.lattice, plan, lint)
            except LintRejectedError:
                _MIGRATIONS.labels(outcome="lint-rejected").inc()
                raise
            if gate is not None and not dry_run:
                gate(self.lattice, report.trace)
            if dry_run or not plan.operations:
                outcome = "dry-run" if dry_run else "noop"
                _MIGRATIONS.labels(outcome=outcome).inc()
                return MigrationResult(plan, report, applied=False)
            with self.batch(verify_on_commit=verify_on_commit) as txn:
                results = txn.apply_all(plan.operations)
            _MIGRATIONS.labels(outcome="applied").inc()
            return MigrationResult(
                plan, report, applied=True, results=tuple(results)
            )

    # -- history and durability -----------------------------------------

    def history(self) -> tuple[JournalEntry, ...]:
        """The journaled operations (since the last checkpoint, when
        durable)."""
        return self._journal.journal.entries if self.durable \
            else self._journal.entries

    def undo(self) -> JournalEntry:
        """Revert the most recent operation via its recorded inverse."""
        if self._txn is not None:
            raise TransactionError("cannot undo inside a batch")
        with trace.span("undo") as span:
            entry = self._journal.undo()
            span.set_attr("op", entry.operation.code)
            return entry

    def checkpoint(self) -> None:
        """Fold the WAL into a snapshot (durable objectbases only)."""
        if not self.durable:
            raise TransactionError(
                "checkpoint requires a durable objectbase (use Objectbase.open)"
            )
        self._journal.checkpoint()

    def __repr__(self) -> str:
        kind = "durable" if self.durable else "in-memory"
        return f"Objectbase({kind}, |T|={len(self.lattice)})"
