"""Per-operation effect summaries and the commutativity oracle.

The paper's central comparative result (Section 5) is that the
axiomatized operations make commutativity *statically decidable*: since
every operation mutates only the designer terms ``Pe``/``Ne`` (plus type
existence) and the rest is re-derived, two operations commute whenever
their read/write footprints over those terms are disjoint.  This module
makes that footprint explicit.

An :class:`EffectSummary` is a pair of cell sets over a small addressing
scheme:

``("type", t)``
    The existence/identity of type ``t`` (including its frozen flag,
    which is fixed at creation).  Read by every operation that names
    ``t``; written by ``AT``/``DT``.
``("pe", t, s)``
    The designer edge ``s ∈ Pe(t)``.  Policy-managed edges (the implicit
    link to the root, the base type's total ``Pe``) are *not* modelled —
    they are a deterministic function of the type set.
``("ne", t, sem)``
    The designer row ``sem ∈ Ne(t)`` (properties are identified by their
    semantics key).
``("derived", t)``
    The derived terms ``P/PL/N/H/I`` of ``t``.  Written for every type in
    the operation's dirty cone (the subject and its transitive subtypes,
    excluding the base type ``⊥``, whose derived row changes with almost
    every operation and which no acceptance condition ever reads); read
    by acceptance conditions that inspect derived state (MT-ASR's cycle
    check reads ``PL(supertype)``; AT under the ``ALL_INHERITED``
    essentiality policy copies ``I`` of each supertype).
``("pe-in", s)`` / ``("ne-any", sem)``
    Wildcard *read* cells: the set of edges into ``s`` (DT scans the
    dependents of the dropped type) and the set of rows carrying ``sem``
    anywhere (DB scans every ``Ne``).  A wildcard read conflicts with
    any concrete write it covers.  Writes are always concrete.

Two summaries **may conflict** when a write of one intersects a read or
write of the other (under wildcard matching).  Disjointness is a *sound*
commutation certificate — see :func:`ops_commute` — with the usual
one-sided conservatism: a "may-conflict" verdict can be a false alarm,
but a "commutes" verdict is never wrong.  The differential fuzz oracle
in ``tests/staticcheck/test_effects.py`` enforces exactly that
direction: no pair the oracle marks "commutes" is allowed to diverge
under real execution in either order.

An operation that is *rejected* at the evaluation state publishes an
empty write set: its reads still capture everything its acceptance
depends on, so if the partner operation touches none of them, the
rejection (and the resulting no-op) is stable under reordering.

On top of the per-operation summaries, :func:`analyze_pair` lifts the
oracle to whole plans from two concurrent writers: each plan is traced
symbolically from the shared base schema and every cross-plan step pair
is checked for conflicts — the static counterpart of the server's
admission-time interference gate (``repro serve --lint``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..core.config import EssentialityDefault
from ..core.errors import SchemaError
from ..core.operations import (
    AddEssentialProperty,
    AddEssentialSupertype,
    AddType,
    DropEssentialProperty,
    DropEssentialSupertype,
    DropPropertyEverywhere,
    DropType,
    SchemaOperation,
)
from ..obs.metrics import REGISTRY as _METRICS
from .registry import Diagnostic, Severity
from .symbolic import PlanTrace, symbolic_run

if TYPE_CHECKING:  # pragma: no cover
    from ..core.lattice import TypeLattice
    from .analyzer import AnalysisReport
    from .plan import EvolutionPlan

__all__ = [
    "Cell",
    "EffectSummary",
    "effect_summary",
    "plan_summaries",
    "conflict_witness",
    "summaries_conflict",
    "ops_commute",
    "analyze_pair",
    "INTERFERENCE_RULE_ID",
]

#: A cell address; see the module docstring for the scheme.
Cell = tuple

INTERFERENCE_RULE_ID = "cross-plan-interference"

_PAIR_RUNS = _METRICS.counter(
    "repro_staticcheck_pair_runs_total",
    "Cross-plan interference analyses (analyze_pair invocations)",
)


def _widen(cell: Cell) -> Cell | None:
    """The wildcard read cell covering a concrete write cell, if any."""
    if cell[0] == "pe":
        return ("pe-in", cell[2])
    if cell[0] == "ne":
        return ("ne-any", cell[2])
    return None


@dataclass(frozen=True)
class EffectSummary:
    """The read/write footprint of one operation at one schema state.

    ``accepted`` records whether the operation passes its preconditions
    at the evaluation state; a rejected operation's ``writes`` is empty
    (it will not execute), while its ``reads`` still name every cell its
    acceptance depends on.
    """

    operation: SchemaOperation
    reads: frozenset[Cell]
    writes: frozenset[Cell]
    accepted: bool = True

    @property
    def write_cover(self) -> frozenset[Cell]:
        """Writes plus the wildcard cells they fall under (for matching
        against the partner's wildcard reads)."""
        cover = set(self.writes)
        for cell in self.writes:
            wide = _widen(cell)
            if wide is not None:
                cover.add(wide)
        return frozenset(cover)

    def conflicts_with(self, other: "EffectSummary") -> bool:
        return bool(conflict_witness(self, other))

    def __str__(self) -> str:
        return (
            f"{self.operation.code}: reads {len(self.reads)} cell(s), "
            f"writes {len(self.writes)}"
            + ("" if self.accepted else " [rejected]")
        )


def _cone(lattice: "TypeLattice", name: str) -> set[Cell]:
    """Derived-term cells dirtied by a change at ``name``: the type and
    its transitive subtypes, excluding the base type ``⊥``.

    The subtypes are found by walking the inverse ``Pe`` index down from
    ``name`` (``s`` is below ``name`` exactly when ``name ∈ PL(s)``), so
    the cost is the cone's, not the lattice's.
    """
    below: set[str] = set()
    if name in lattice:
        stack = [name]
        while stack:
            for s in lattice.essential_subtypes(stack.pop()):
                if s not in below:
                    below.add(s)
                    stack.append(s)
        below.discard(lattice.base)
    below.add(name)
    return {("derived", t) for t in below}


def _edge_cell(lattice: "TypeLattice", t: str, s: str) -> Cell | None:
    """The cell for the designer edge ``s ∈ Pe(t)``, or ``None`` when
    the edge is policy-managed (links to the root, the base's rows)."""
    if s == lattice.root or t == lattice.base:
        return None
    return ("pe", t, s)


def effect_summary(
    lattice: "TypeLattice", op: SchemaOperation
) -> EffectSummary:
    """The footprint of ``op`` evaluated against ``lattice`` (read-only).

    The summary is exact about *reads* (every cell the operation's
    acceptance or designer-state delta depends on) and conservative
    about *writes* (a superset of the cells it may change when executed
    at this state).
    """
    reads: set[Cell] = set()
    writes: set[Cell] = set()
    policy = lattice.policy

    try:
        op.validate(lattice)
        accepted = True
    except SchemaError:
        accepted = False

    if isinstance(op, AddType):
        reads.add(("type", op.name))
        for s in op.supertypes:
            reads.add(("type", s))
        if accepted:
            writes.add(("type", op.name))
            writes.add(("derived", op.name))
            for s in op.supertypes:
                cell = _edge_cell(lattice, op.name, s)
                if cell is not None:
                    writes.add(cell)
            for p in op.properties:
                writes.add(("ne", op.name, p.semantics))
            if policy.essentiality is EssentialityDefault.ALL_INHERITED:
                # Declaration-time essentiality copies each supertype's
                # reachable ancestors and full interface into Pe/Ne — the
                # new type's designer rows now depend on derived state.
                for s in op.supertypes:
                    reads.add(("derived", s))
                    for a in lattice.pl(s):
                        cell = _edge_cell(lattice, op.name, a)
                        if cell is not None:
                            writes.add(cell)
                    for q in lattice.interface(s):
                        writes.add(("ne", op.name, q.semantics))
    elif isinstance(op, DropType):
        reads.add(("type", op.name))
        reads.add(("pe-in", op.name))  # the dependents scan
        if accepted:
            writes.add(("type", op.name))
            writes |= _cone(lattice, op.name)
            for d in lattice.essential_subtypes(op.name):
                cell = _edge_cell(lattice, d, op.name)
                if cell is not None:
                    writes.add(cell)
    elif isinstance(op, AddEssentialSupertype):
        reads.add(("type", op.subject))
        reads.add(("type", op.supertype))
        # Acceptance reads the cycle check: subject ∈ PL(supertype)?
        reads.add(("derived", op.supertype))
        if accepted:
            cell = _edge_cell(lattice, op.subject, op.supertype)
            if cell is not None:
                writes.add(cell)
            writes |= _cone(lattice, op.subject)
    elif isinstance(op, DropEssentialSupertype):
        reads.add(("type", op.subject))
        reads.add(("type", op.supertype))
        if accepted:
            cell = _edge_cell(lattice, op.subject, op.supertype)
            if cell is not None:
                writes.add(cell)
            writes |= _cone(lattice, op.subject)
    elif isinstance(op, (AddEssentialProperty, DropEssentialProperty)):
        reads.add(("type", op.subject))
        if accepted:
            writes.add(("ne", op.subject, op.prop.semantics))
            writes |= _cone(lattice, op.subject)
    elif isinstance(op, DropPropertyEverywhere):
        sem = op.prop.semantics
        reads.add(("ne-any", sem))  # the every-Ne scan
        if accepted:
            for t in lattice.essential_in(op.prop):
                if lattice.is_frozen(t):
                    continue  # DB skips primitive types
                writes.add(("ne", t, sem))
                writes |= _cone(lattice, t)
    else:  # unknown operation kind: assume the worst over its names
        for attr in ("name", "subject", "supertype"):
            t = getattr(op, attr, None)
            if t:
                reads.add(("type", t))
                writes.add(("type", t))
                writes |= _cone(lattice, t)

    return EffectSummary(
        operation=op,
        reads=frozenset(reads),
        writes=frozenset(writes),
        accepted=accepted,
    )


def conflict_witness(
    a: EffectSummary, b: EffectSummary
) -> frozenset[Cell]:
    """The cells on which ``a`` and ``b`` may conflict (empty = disjoint).

    A conflict is a write of one intersecting a read or a write of the
    other; wildcard reads match every concrete write they cover.
    Write/write intersection is checked on the concrete cells only
    (writes are never wildcards).
    """
    return frozenset(
        (a.write_cover & b.reads)
        | (b.write_cover & a.reads)
        | (a.writes & b.writes)
    )


def summaries_conflict(a: EffectSummary, b: EffectSummary) -> bool:
    return bool(conflict_witness(a, b))


def ops_commute(
    lattice: "TypeLattice", a: SchemaOperation, b: SchemaOperation
) -> bool:
    """Sound commutation certificate for ``a`` and ``b`` at ``lattice``.

    ``True`` guarantees that executing ``a;b`` and ``b;a`` from this
    state accepts/rejects identically and reaches the same designer
    state (and therefore, by the axioms, the same derived state).
    ``False`` means only *may not commute* — disjointness is sufficient,
    not necessary.
    """
    return not summaries_conflict(
        effect_summary(lattice, a), effect_summary(lattice, b)
    )


def plan_summaries(trace: PlanTrace) -> list[EffectSummary]:
    """Per-step summaries of a symbolically executed plan, each evaluated
    at the state its step actually sees.

    Takes the trace rather than the plan so a caller that also analyzes
    the plan (the admission gates) runs one symbolic execution for both.
    """
    return [effect_summary(step.before, step.operation) for step in trace]


def analyze_pair(
    lattice: "TypeLattice",
    plan_a: "EvolutionPlan",
    plan_b: "EvolutionPlan",
) -> "AnalysisReport":
    """Interference analysis for two plans racing from a shared schema.

    Both plans are symbolically traced from ``lattice`` (each against its
    own copy), every step is summarized at the state its own plan gives
    it, and every cross-plan step pair is checked for effect conflicts.
    An empty report certifies the plans commute at batch granularity:
    ``A;B`` and ``B;A`` accept identically and reach the same schema.

    Findings carry the ``cross-plan-interference`` rule id; ``step``
    indexes into ``plan_b`` (the incoming plan, in the server's usage),
    with the partner step named in the message.
    """
    from .analyzer import AnalysisReport

    _PAIR_RUNS.inc()
    sums_a = plan_summaries(symbolic_run(lattice, plan_a))
    sums_b = plan_summaries(symbolic_run(lattice, plan_b))
    name_a = plan_a.name or "plan A"
    name_b = plan_b.name or "plan B"
    diagnostics: list[Diagnostic] = []
    for j, sb in enumerate(sums_b):
        for i, sa in enumerate(sums_a):
            witness = conflict_witness(sa, sb)
            if not witness:
                continue
            cells = ", ".join(
                "/".join(str(part) for part in cell)
                for cell in sorted(witness)[:4]
            )
            diagnostics.append(
                Diagnostic(
                    rule_id=INTERFERENCE_RULE_ID,
                    severity=Severity.WARNING,
                    category="concurrency",
                    subject=getattr(
                        sb.operation, "name",
                        getattr(sb.operation, "subject", ""),
                    ),
                    step=j,
                    message=(
                        f"step {j} ({sb.operation.describe()}) of "
                        f"{name_b!r} may conflict with step {i} "
                        f"({sa.operation.describe()}) of {name_a!r} "
                        f"on {cells}"
                    ),
                    fixit=(
                        "serialize the plans through one writer, or "
                        "rebase the later plan onto the committed schema"
                    ),
                )
            )
    return AnalysisReport(
        diagnostics=tuple(diagnostics),
        rules_run=(INTERFERENCE_RULE_ID,),
        plan=plan_b,
    )
