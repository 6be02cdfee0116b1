"""The migration differ: declared target schema − live schema = plan.

:func:`diff_schemas` compares a :class:`~repro.ddl.ast.SchemaDecl` (or
DDL text) against a live objectbase and emits the **minimal** evolution
plan — only operations whose designer-state delta is non-empty — in an
order that is safe by construction:

1. ``DT`` for types absent from the target (subtypes before their
   dropped supertypes; dropping a type detaches it from every ``Pe``
   that lists it, so no explicit edge drops toward doomed types are
   emitted);
2. ``AT`` for new types, topologically (declared supertypes first), each
   carrying its declared ``Ne`` block;
3. ``MT-DSR`` for stale essential-supertype edges of surviving types;
4. ``MT-ASR`` for new edges — after every drop, so the intermediate edge
   set stays a subset of the (acyclic) target's and no step can trip the
   Axiom of Acyclicity;
5. ``MT-DB`` / ``MT-AB`` for native-property deltas.

The differ speaks the axiomatic model's identity rules: a property *is*
its semantics key (Section 3.1), so payload-only edits (display name,
domain) are treated as annotations, not schema deltas; the policy's
managed cells (the implicit root in every ``Pe``, the base type's
``Pe``, frozen primitive types) are excluded from both sides.  Applying
the emitted plan makes a re-diff against the same target empty — the
idempotent fixpoint the test-suite oracle proves over fuzzed pairs.

``live`` may be a :class:`~repro.api.Objectbase`, a raw
:class:`~repro.core.lattice.TypeLattice`, a
:class:`~repro.concurrent.ConcurrentObjectbase`, or a published
:class:`~repro.concurrent.SchemaSnapshot` (lock-free diffing).
"""

from __future__ import annotations

import heapq
from time import perf_counter

from ..core.errors import DDLValidationError
from ..core.operations import (
    AddEssentialProperty,
    AddEssentialSupertype,
    AddType,
    DropEssentialProperty,
    DropEssentialSupertype,
    DropType,
    SchemaOperation,
)
from ..core.properties import Property
from ..obs.metrics import REGISTRY
from ..obs.tracing import trace
from ..staticcheck.plan import EvolutionPlan
from .ast import PropertyDecl, SchemaDecl, TypeDecl
from .parser import parse_schema

__all__ = ["diff_schemas", "schema_from"]

_DIFF_RUNS = REGISTRY.counter(
    "repro_ddl_diff_runs_total",
    "Schema differ invocations",
)
_DIFF_OPS = REGISTRY.counter(
    "repro_ddl_diff_operations_total",
    "Operations emitted by the schema differ, by operation code",
    labelnames=("op",),
)
_DIFF_SECONDS = REGISTRY.histogram(
    "repro_ddl_diff_seconds",
    "Schema differ latency (validate + delta + ordering)",
)


class _LiveView:
    """Uniform read access to whichever live-schema shape we were given."""

    def __init__(self, live) -> None:
        snapshot = getattr(live, "snapshot", None)
        if snapshot is not None and not callable(snapshot):
            live = snapshot  # ConcurrentObjectbase -> SchemaSnapshot
        lattice = getattr(live, "lattice", None)
        if lattice is not None:
            live = lattice  # Objectbase / journal -> TypeLattice
        self._live = live
        self.root: str | None = getattr(live, "root", None)
        self.base: str | None = getattr(live, "base", None)
        is_frozen = getattr(live, "is_frozen", None)
        if callable(is_frozen):
            self.frozen = frozenset(
                t for t in live.types() if is_frozen(t)
            )
        else:
            self.frozen = frozenset(getattr(live, "frozen", ()) or ())

    def types(self) -> frozenset[str]:
        return self._live.types()

    def declared_types(self) -> list[str]:
        """Designer-managed types: everything the policy doesn't own."""
        return sorted(self.types() - self.frozen)

    def pe(self, name: str) -> frozenset[str]:
        """The declared supertype set, without the policy-implied root."""
        supers = self._live.pe(name)
        if self.root is not None:
            supers = supers - {self.root}
        return supers

    def ne(self, name: str) -> frozenset[Property]:
        return self._live.ne(name)


def schema_from(live, name: str = "") -> SchemaDecl:
    """Export the live schema as a canonical :class:`SchemaDecl`.

    The inverse direction of the differ: ``diff_schemas(live,
    schema_from(live))`` is always the empty plan.
    """
    view = _LiveView(live)
    return SchemaDecl(
        tuple(
            TypeDecl(
                t,
                tuple(view.pe(t)),
                tuple(
                    PropertyDecl.from_property(p) for p in view.ne(t)
                ),
            )
            for t in view.declared_types()
        ),
        name=name,
    )


def _validate_target(target: SchemaDecl, view: _LiveView) -> None:
    """Reject targets the plan could never realize (typed, up front)."""
    declared = target.type_names()
    managed = set(view.frozen)
    for special in (view.root, view.base):
        if special is not None:
            managed.add(special)
    for t in target:
        if t.name in managed:
            raise DDLValidationError(
                f"type {t.name!r} is managed by the lattice policy and "
                f"cannot be declared"
            )
        for s in t.supertypes:
            if s == view.base:
                raise DDLValidationError(
                    f"type {t.name!r}: the base type {s!r} cannot be a "
                    f"supertype"
                )
            if s == view.root:
                continue  # implicit in every Pe: harmless, normalized out
            if s not in declared and s not in view.frozen:
                raise DDLValidationError(
                    f"type {t.name!r}: unknown supertype {s!r} (declare "
                    f"it, or it must be a policy-managed type)"
                )
    _require_acyclic(target)


def _require_acyclic(target: SchemaDecl) -> None:
    order = _topo_order(
        target.type_names(), {t.name: set(t.supertypes) for t in target}
    )
    if order is None:
        raise DDLValidationError(
            "the declared supertype graph contains a cycle"
        )


def _topo_order(
    names: frozenset[str], supers: dict[str, set[str]]
) -> list[str] | None:
    """Names ordered so every name follows its supertypes; ``None`` on a
    cycle.  Deterministic: ties resolve alphabetically.

    Kahn's algorithm over the inverse adjacency, with a heap of the
    ready names so the smallest one goes next: O((n + e) log n).
    """
    waiting: dict[str, int] = {}
    dependents: dict[str, list[str]] = {n: [] for n in names}
    for n in names:
        deps = set(supers.get(n, ())) & names
        waiting[n] = len(deps)
        for d in deps:
            dependents[d].append(n)
    ready = [n for n, count in waiting.items() if not count]
    heapq.heapify(ready)
    out: list[str] = []
    while ready:
        n = heapq.heappop(ready)
        out.append(n)
        for m in dependents[n]:
            waiting[m] -= 1
            if not waiting[m]:
                heapq.heappush(ready, m)
    return out if len(out) == len(names) else None


def _target_pe(decl: TypeDecl, view: _LiveView) -> frozenset[str]:
    return frozenset(s for s in decl.supertypes if s != view.root)


def diff_schemas(
    live,
    target: SchemaDecl | str,
    *,
    name: str = "",
) -> EvolutionPlan:
    """The minimal, safely ordered plan that evolves ``live`` to ``target``.

    ``target`` may be DDL text (parsed here) or an already-parsed
    :class:`SchemaDecl`.  Raises
    :class:`~repro.core.errors.DDLValidationError` when the target is
    unrealizable (see :func:`_validate_target`); the returned plan is
    empty exactly when the schemas already agree.
    """
    if isinstance(target, str):
        target = parse_schema(target)
    started = perf_counter()
    with trace.span("ddl.diff") as span:
        view = _LiveView(live)
        _validate_target(target, view)
        ops = _delta(view, target)
        span.set_attr("operations", len(ops))
    _DIFF_RUNS.inc()
    for op in ops:
        _DIFF_OPS.labels(op=op.code).inc()
    _DIFF_SECONDS.observe(perf_counter() - started)
    plan_name = name or (
        f"migrate-to-{target.name}" if target.name else "migrate"
    )
    return EvolutionPlan(ops, name=plan_name, fmt="object")


def _delta(view: _LiveView, target: SchemaDecl) -> list[SchemaOperation]:
    live_names = frozenset(view.declared_types())
    target_names = target.type_names()
    dropped = live_names - target_names
    added = target_names - live_names
    common = live_names & target_names
    ops: list[SchemaOperation] = []

    # 1. Drop vanished types, subtypes before their dropped supertypes.
    drop_order = _topo_order(
        frozenset(dropped), {t: set(view.pe(t)) for t in dropped}
    )
    assert drop_order is not None  # the live lattice is acyclic
    for t in reversed(drop_order):
        ops.append(DropType(t))

    # 2. Create new types, supertypes first, with their Ne blocks.
    add_order = _topo_order(
        frozenset(added),
        {t.name: set(t.supertypes) for t in target if t.name in added},
    )
    assert add_order is not None  # _validate_target proved acyclicity
    for t in add_order:
        decl = target.get(t)
        ops.append(AddType(
            t,
            tuple(sorted(_target_pe(decl, view))),
            tuple(p.to_property() for p in decl.properties),
        ))

    # 3./4. Essential-supertype edges of surviving types: drops before
    # adds, so intermediate edge sets stay within the acyclic target's.
    edge_adds: list[SchemaOperation] = []
    for t in sorted(common):
        have = view.pe(t)
        want = _target_pe(target.get(t), view)
        for s in sorted(have - want):
            if s in dropped:
                continue  # step 1's DT already detached this edge
            ops.append(DropEssentialSupertype(t, s))
        for s in sorted(want - have):
            edge_adds.append(AddEssentialSupertype(t, s))
    ops += edge_adds

    # 5. Native-property deltas (identity = semantics key).
    prop_adds: list[SchemaOperation] = []
    for t in sorted(common):
        have = {p.semantics: p for p in view.ne(t)}
        want = {p.semantics: p for p in target.get(t).properties}
        for key in sorted(set(have) - set(want)):
            # Drop the *live* property object so the recorded inverse
            # restores the exact payload (undo-safety).
            ops.append(DropEssentialProperty(t, have[key]))
        for key in sorted(set(want) - set(have)):
            prop_adds.append(
                AddEssentialProperty(t, want[key].to_property())
            )
    ops += prop_adds
    return ops
