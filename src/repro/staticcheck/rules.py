"""The built-in rule catalogue of the schema-evolution static analyzer.

Two rule scopes:

* **schema** rules look at one lattice state (the final symbolic state
  when a plan is analyzed).  The five of them are the advisory schema
  lint checks.
* **plan** rules look at the whole symbolic execution trace and flag
  hazards no single-state check can see: doomed operations, conflicts a
  later step introduces, Orion-vs-TIGUKAT order-dependence divergence
  (the paper's Section 5 hazard), lossy drops, redundancy creep,
  drop/re-add churn, duplicate and no-op steps, and instance-migration
  impact estimates.

Every rule carries an example trigger and a fix-it suggestion; the rule
catalogue in ``docs/staticcheck.md`` is written from these fields.
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING, Iterable, Iterator

from ..core.errors import SchemaError
from ..core.impact import changed_types
from ..core.operations import (
    AddType,
    DropEssentialProperty,
    DropEssentialSupertype,
    DropPropertyEverywhere,
    DropType,
)
from ..orion.conflict import find_name_conflicts_minimal
from .effects import effect_summary, summaries_conflict
from .engines import find_order_hazard
from .fixes import DeleteStep
from .registry import REGISTRY, Diagnostic, Severity, rule

if TYPE_CHECKING:  # pragma: no cover
    from ..core.lattice import TypeLattice
    from .analyzer import AnalysisContext

__all__ = ["SCHEMA_RULE_IDS", "PLAN_RULE_IDS"]

#: The schema-scope lint rules, in their historic order.
SCHEMA_RULE_IDS = (
    "redundant-essential-supertype",
    "redundant-essential-property",
    "shadowed-name",
    "empty-interface",
    "single-subtype-chain",
)

PLAN_RULE_IDS = (
    "doomed-operation",
    "order-dependence-hazard",
    "late-name-conflict",
    "lossy-property-drop",
    "drop-readd-churn",
    "redundancy-introduced",
    "migration-impact",
    "duplicate-step",
    "no-op-step",
    "reorder-hazard",
    "undo-unsafe-step",
    "cross-plan-interference",
)

_DESTRUCTIVE = (
    DropType,
    DropEssentialSupertype,
    DropEssentialProperty,
    DropPropertyEverywhere,
)


# ----------------------------------------------------------------------
# Schema-state rules
# ----------------------------------------------------------------------


@rule(
    "redundant-essential-supertype",
    scope="schema",
    severity=Severity.INFO,
    category="redundancy",
    summary="an essential supertype is dominated (reachable through "
            "another essential supertype)",
    example="Pe(T_ta) = {T_student, T_person} with T_student ⊑ T_person",
    fixit="drop the dominated declaration, or run `normalize` to rewrite "
          "Pe to the minimal form",
)
def _redundant_supertypes(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    lattice = ctx.schema
    base, root = lattice.base, lattice.root
    for t in sorted(lattice.types()):
        if t == base:
            continue  # Pe(⊥) is total by the pointedness policy
        for s in sorted(lattice.pe(t) - lattice.p(t)):
            if s == root:
                continue  # the implicit root declaration is policy
            yield Diagnostic(
                "", Severity.INFO, "", subject=t,
                message=f"{s!r} is reachable through another essential "
                        f"supertype (will be re-established on drops)",
            )


@rule(
    "redundant-essential-property",
    scope="schema",
    severity=Severity.INFO,
    category="redundancy",
    summary="an essential property is inherited, so it is not native",
    example="taxBracket ∈ Ne(T_employee) while already in H(T_employee)",
    fixit="drop the declaration unless the adopt-on-drop insurance is "
          "intended",
)
def _redundant_properties(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    lattice = ctx.schema
    for t in sorted(lattice.types()):
        for p in sorted(lattice.ne(t) - lattice.n(t)):
            yield Diagnostic(
                "", Severity.INFO, "", subject=t,
                message=f"{p} is inherited; it will be adopted as native if "
                        f"its defining supertype disappears",
            )


@rule(
    "shadowed-name",
    scope="schema",
    severity=Severity.WARNING,
    category="conflict",
    summary="two distinct properties share a display name in one interface",
    example="person.name and taxSource.name both visible in I(T_employee)",
    fixit="rename one property, or rely on Orion-style order resolution "
          "explicitly",
)
def _shadowed_names(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    lattice = ctx.schema
    for t in sorted(lattice.types()):
        for name, keys in sorted(
            find_name_conflicts_minimal(lattice, t).items()
        ):
            yield Diagnostic(
                "", Severity.WARNING, "", subject=t,
                message=f"name {name!r} denotes {sorted(keys)} in I({t})",
            )


@rule(
    "empty-interface",
    scope="schema",
    severity=Severity.INFO,
    category="design",
    summary="a non-root type whose interface is empty",
    example="add-type T_bare with no properties and no supertypes",
    fixit="add essential properties, or collapse the type",
)
def _empty_interfaces(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    lattice = ctx.schema
    for t in sorted(lattice.types()):
        if t in (lattice.root, lattice.base):
            continue
        if not lattice.interface(t):
            yield Diagnostic(
                "", Severity.INFO, "", subject=t,
                message="interface is empty",
            )


@rule(
    "single-subtype-chain",
    scope="schema",
    severity=Severity.INFO,
    category="design",
    summary="a pass-through type between one supertype and one subtype "
            "adding nothing to the interface",
    example="T_top -> T_mid -> T_bot with N(T_mid) = ∅",
    fixit="collapse the chain: reparent the subtype and drop the middle "
          "type",
)
def _single_subtype_chains(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    lattice = ctx.schema
    base = lattice.base
    for t in sorted(lattice.types()):
        if t in (lattice.root, base):
            continue
        subtypes = lattice.subtypes(t) - ({base} if base else set())
        if (
            len(lattice.p(t)) == 1
            and len(subtypes) == 1
            and not lattice.n(t)
        ):
            yield Diagnostic(
                "", Severity.INFO, "", subject=t,
                message="adds nothing to the interface between "
                        f"{next(iter(lattice.p(t)))!r} and "
                        f"{next(iter(subtypes))!r}",
            )


# ----------------------------------------------------------------------
# Plan-trace rules
# ----------------------------------------------------------------------


@rule(
    "doomed-operation",
    scope="plan",
    severity=Severity.ERROR,
    category="hazard",
    summary="a plan step will be rejected by the axioms when executed",
    example="add-edge T_a T_b when T_b ⊑ T_a (Axiom of Acyclicity), or "
            "drop-edge T_x T_object (Axiom of Rootedness)",
    fixit="remove the step, or reorder the plan so its preconditions hold",
)
def _doomed_operations(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    for step in ctx.trace:
        if not step.accepted:
            # A rejected step never executes, so deleting it is always
            # schema-preserving: safe to auto-fix.
            yield Diagnostic(
                "", Severity.ERROR, "", step=step.index,
                subject=getattr(
                    step.operation, "name",
                    getattr(step.operation, "subject", ""),
                ),
                message=f"{step.operation.describe()} would be rejected "
                        f"[{step.rejection_code or 'operation-rejected'}]: "
                        f"{step.rejection}",
                edits=(DeleteStep(step.index),),
            )


@rule(
    "order-dependence-hazard",
    scope="plan",
    severity=Severity.WARNING,
    category="hazard",
    summary="the plan's edge drops are order-dependent under Orion "
            "semantics (Section 5) though order-independent under TIGUKAT",
    example="drop-edge T_c T_b; drop-edge T_b T_a — Orion's OP4 rewires "
            "differently depending on which runs first",
    fixit="run the plan on the axiomatic (TIGUKAT-policy) engine, or pin "
          "a canonical drop order",
)
def _order_dependence(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    drop_steps = [
        s for s in ctx.trace
        if isinstance(s.operation, DropEssentialSupertype)
    ]
    drops = [
        (s.operation.subject, s.operation.supertype) for s in drop_steps
    ]
    if not drops:
        return
    # Replay from the symbolic state just before the first drop, so the
    # hazard is detected even when the plan bootstrapped the types itself.
    hazard = find_order_hazard(drop_steps[0].before, drops)
    if hazard is not None and hazard.diverges:
        yield Diagnostic(
            "", Severity.WARNING, "",
            step=drop_steps[0].index,
            subject=drop_steps[0].operation.subject,
            message=hazard.describe(),
        )


def _new_conflicts(
    before: "TypeLattice", after: "TypeLattice", t: str
) -> list[str]:
    """Names that denote two or more properties in ``I(t)`` after a step
    but not before it.

    A name can only become ambiguous when a property carrying it enters
    ``I(t)``, so only those names are counted, on both sides.  (Over
    ``I(t)`` this is :func:`~repro.orion.conflict.find_name_conflicts_minimal`:
    ``N(t)`` and the interfaces of ``P(t)`` make up ``I(t)``.)
    """
    new_i = after.interface(t)
    old_i = before.interface(t) if t in before else frozenset()
    names = {p.name for p in new_i - old_i}
    if not names:
        return []

    def keys(interface: frozenset) -> dict[str, set[str]]:
        out: dict[str, set[str]] = {}
        for p in interface:
            if p.name in names:
                out.setdefault(p.name, set()).add(p.semantics)
        return out

    new_keys, old_keys = keys(new_i), keys(old_i)
    return [
        name for name, sems in new_keys.items()
        if len(sems) > 1 and len(old_keys.get(name, ())) < 2
    ]


@rule(
    "late-name-conflict",
    scope="plan",
    severity=Severity.WARNING,
    category="conflict",
    summary="a plan step introduces a property-name conflict that did "
            "not exist before it",
    example="add-edge T_employee T_taxSource brings a second 'name' into "
            "I(T_employee)",
    fixit="rename one of the colliding properties before this step",
)
def _late_name_conflicts(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    # The conflicts of t are a function of I(t): only the types a step
    # touched can gain one.
    for step in ctx.trace:
        if not step.changed:
            continue
        new = [
            (t, name)
            for t in step.touched if t in step.after
            for name in _new_conflicts(step.before, step.after, t)
        ]
        for t, name in sorted(new):
            yield Diagnostic(
                "", Severity.WARNING, "", step=step.index, subject=t,
                message=f"{step.operation.describe()} introduces a name "
                        f"conflict: {name!r} becomes ambiguous in I({t})",
            )


@rule(
    "lossy-property-drop",
    scope="plan",
    severity=Severity.WARNING,
    category="migration",
    summary="a step removes properties from surviving interfaces; stored "
            "instance values become unreachable",
    example="drop-type T_person loses 'name' from I(T_student)",
    fixit="screen or convert affected instances first (see "
          "repro.propagation), or re-home the property",
)
def _lossy_drops(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    for step in ctx.trace:
        if not step.accepted:
            continue
        for t, (_gained, lost) in sorted(step.impact.interface_changes.items()):
            if not lost:
                continue
            names = sorted(str(p) for p in lost)
            yield Diagnostic(
                "", Severity.WARNING, "", step=step.index, subject=t,
                message=f"I({t}) loses {names}; instance values under "
                        f"these properties become unreachable",
            )


@rule(
    "drop-readd-churn",
    scope="plan",
    severity=Severity.WARNING,
    category="migration",
    summary="a type is dropped and later re-created in the same plan",
    example="drop-type T_student ... add-type T_student",
    fixit="replace the drop/re-add pair with in-place MT-* edits to keep "
          "instance identity",
)
def _drop_readd(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    dropped_at: dict[str, int] = {}
    for step in ctx.trace:
        op = step.operation
        if isinstance(op, DropType) and step.accepted:
            dropped_at[op.name] = step.index
        elif isinstance(op, AddType) and op.name in dropped_at:
            yield Diagnostic(
                "", Severity.WARNING, "", step=step.index, subject=op.name,
                message=f"type {op.name!r} was dropped at step "
                        f"{dropped_at[op.name]} and is re-created here; "
                        f"its instances are discarded, not migrated",
            )
            dropped_at.pop(op.name)


def _redundancies(
    lattice: "TypeLattice", types: Iterable[str]
) -> frozenset[tuple]:
    base, root = lattice.base, lattice.root
    out: set[tuple] = set()
    for t in types:
        if t not in lattice:
            continue
        if t != base:
            for s in lattice.pe(t) - lattice.p(t):
                if s != root:
                    out.add(("pe", t, s))
        for p in lattice.ne(t) - lattice.n(t):
            out.add(("ne", t, p.semantics))
    return frozenset(out)


@rule(
    "redundancy-introduced",
    scope="plan",
    severity=Severity.INFO,
    category="redundancy",
    summary="a step turns an essential declaration redundant (dominated "
            "supertype or inherited property)",
    example="add-edge T_c T_a after T_c ⊑ T_b ⊑ T_a",
    fixit="drop the now-dominated declaration, or plan a `normalize`",
)
def _redundancy_introduced(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    # Accepted steps, not derived-changed ones: adding a dominated edge
    # alters Pe while leaving every derived term intact — a no-op by
    # impact, but exactly the redundancy this rule exists to catch.
    # Redundancy in t reads only t's own rows: only touched types count.
    for step in ctx.trace:
        if not step.accepted:
            continue
        touched = step.touched
        new = _redundancies(step.after, touched) - _redundancies(
            step.before, touched
        )
        for kind, t, what in sorted(
            new, key=lambda e: (e[0], e[1], str(e[2]))
        ):
            term = "Pe" if kind == "pe" else "Ne"
            yield Diagnostic(
                "", Severity.INFO, "", step=step.index, subject=t,
                message=f"{step.operation.describe()} makes {what!r} "
                        f"redundant in {term}({t})",
            )


@rule(
    "migration-impact",
    scope="plan",
    severity=Severity.INFO,
    category="migration",
    summary="estimated blast radius of a destructive step: how many "
            "types' derived terms change",
    example="drop-type T_person touches every subtype's P and I",
    fixit="",
)
def _migration_impact(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    for step in ctx.trace:
        if not step.accepted or not isinstance(step.operation, _DESTRUCTIVE):
            continue
        affected = step.impact.affected_types
        if not affected:
            continue
        n_iface = len(step.impact.interface_changes)
        yield Diagnostic(
            "", Severity.INFO, "", step=step.index,
            subject=getattr(
                step.operation, "name",
                getattr(step.operation, "subject", ""),
            ),
            message=f"affects {len(affected)} type(s) "
                    f"({n_iface} interface change(s)): "
                    f"{sorted(affected)[:8]}",
        )


@rule(
    "duplicate-step",
    scope="plan",
    severity=Severity.INFO,
    category="hygiene",
    summary="the identical operation appears more than once in the plan",
    example="two identical add-edge T_b T_a steps",
    fixit="delete the repeated step",
)
def _duplicate_steps(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    seen: dict[str, int] = {}
    for step in ctx.trace:
        key = json.dumps(step.operation.to_dict(), sort_keys=True)
        if key in seen:
            yield Diagnostic(
                "", Severity.INFO, "", step=step.index,
                message=f"identical to step {seen[key]} "
                        f"({step.operation.describe()})",
                edits=_delete_if_inert(step),
            )
        else:
            seen[key] = step.index


@rule(
    "no-op-step",
    scope="plan",
    severity=Severity.INFO,
    category="hygiene",
    summary="an accepted step that changes no derived state",
    example="add-edge T_b T_a when T_a is already essential in T_b",
    fixit="delete the step",
)
def _noop_steps(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    for step in ctx.trace:
        if step.accepted and step.impact.is_noop:
            yield Diagnostic(
                "", Severity.INFO, "", step=step.index,
                message=f"{step.operation.describe()} changes nothing in "
                        f"the schema state at this point",
                edits=_delete_if_inert(step),
            )


def _delete_if_inert(step) -> tuple:
    """A DeleteStep edit, but only when removing the step provably cannot
    change the plan's outcome: the step is rejected (never executes) or
    leaves the *designer* state untouched.  An impact-level no-op that
    still edits ``Pe``/``Ne`` (e.g. declaring a dominated supertype) is
    left to a human — that declaration changes how later drops behave.
    """
    inert = (
        not step.accepted
        or step.before.state_fingerprint() == step.after.state_fingerprint()
    )
    return (DeleteStep(step.index),) if inert else ()


# ----------------------------------------------------------------------
# Effect-summary rules (commutativity, undo-safety, interference)
# ----------------------------------------------------------------------


@rule(
    "reorder-hazard",
    scope="plan",
    severity=Severity.WARNING,
    category="hazard",
    summary="adjacent steps with overlapping effects whose swap silently "
            "changes the resulting schema",
    example="add-edge T_c T_a; drop-type T_a — swapped, the edge add is "
            "rejected and T_c silently keeps its old ancestry",
    fixit="make the data dependency explicit (merge the steps or add a "
          "comment), or separate the steps into different plans",
)
def _reorder_hazards(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    steps = ctx.trace.steps
    for a, b in zip(steps, steps[1:]):
        base = a.before
        sa = effect_summary(base, a.operation)
        sb = effect_summary(base, b.operation)
        if not summaries_conflict(sa, sb):
            continue  # certified commuting: swap-safe by the axioms
        # Dual replay of the swapped order from the state before `a`.
        swapped = base.copy()
        ok = {}
        for tag, op in (("b", b.operation), ("a", a.operation)):
            try:
                op.apply(swapped)
                ok[tag] = True
            except SchemaError:
                ok[tag] = False
        if ok["a"] != a.accepted or ok["b"] != b.accepted:
            continue  # the dependency fails loudly when swapped: visible
        if swapped.state_fingerprint() == b.after.state_fingerprint():
            continue  # effects overlap but the orders converge anyway
        yield Diagnostic(
            "", Severity.WARNING, "", step=b.index,
            subject=getattr(
                b.operation, "name", getattr(b.operation, "subject", ""),
            ),
            message=f"swapping with step {a.index} "
                    f"({a.operation.describe()}) is accepted but yields a "
                    f"different schema — the order matters and nothing "
                    f"would fail to say so",
        )


@rule(
    "undo-unsafe-step",
    scope="plan",
    severity=Severity.WARNING,
    category="migration",
    summary="a step whose recorded inverse does not restore the schema "
            "exactly (undo after this step is lossy or rejected)",
    example="DB salary when one type's row carried a renamed display "
            "name — the inverse re-adds the canonical payload",
    fixit="prefer narrower MT-* edits whose inverses are exact, or "
          "checkpoint before this step so recovery replays instead of "
          "inverting",
)
def _undo_unsafe_steps(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    for step in ctx.trace:
        if not step.accepted:
            continue
        before = step.before
        work = before.copy()
        try:
            result = step.operation.apply(work)
        except SchemaError:  # pragma: no cover - accepted implies applies
            continue
        if not result.changed:
            continue  # no-op round-trips trivially
        problem = ""
        try:
            for inv in result.inverse:
                inv.apply(work)
        except SchemaError as exc:
            problem = f"the inverse is rejected ({exc})"
        if not problem:
            # Rows the round trip left as the same objects are restored;
            # compare the rest.
            problem = _round_trip_problem(
                before, work, changed_types(before, work)
            )
        if problem:
            yield Diagnostic(
                "", Severity.WARNING, "", step=step.index,
                subject=getattr(
                    step.operation, "name",
                    getattr(step.operation, "subject", ""),
                ),
                message=f"undoing {step.operation.describe()} does not "
                        f"round-trip: {problem}",
            )


def _round_trip_problem(
    before: "TypeLattice", work: "TypeLattice", types: Iterable[str]
) -> str:
    """Why ``work`` does not restore ``before`` on ``types``, or ``""``."""
    payload_drift = False
    for t in types:
        if (t in before) != (t in work):
            return "the derived P/PL/N/H/I state is not restored"
        if t not in work:
            continue
        if (
            before.pe(t) != work.pe(t)
            or before.ne(t) != work.ne(t)
            or before.p(t) != work.p(t)
            or before.n(t) != work.n(t)
            or before.interface(t) != work.interface(t)
        ):
            return "the derived P/PL/N/H/I state is not restored"
        payload_drift = payload_drift or (
            _payload_rows(before, t) != _payload_rows(work, t)
        )
    if payload_drift:
        return (
            "property payloads drift (display name or domain is "
            "replaced by the inverse's canonical copy)"
        )
    return ""


def _payload_rows(lattice: "TypeLattice", t: str) -> frozenset[tuple]:
    """Designer Ne rows of ``t`` *including* the payload fields that
    semantics-based equality (and hence the fingerprints) cannot see."""
    return frozenset((p.semantics, p.name, p.domain) for p in lattice.ne(t))


@rule(
    "cross-plan-interference",
    scope="plan",
    severity=Severity.WARNING,
    category="concurrency",
    summary="steps of two concurrently submitted plans read/write "
            "overlapping Pe edges, Ne rows, or derived state",
    example="writer A drops T_person while writer B adds a subtype "
            "under it",
    fixit="serialize the plans through one writer, or rebase the later "
          "plan onto the committed schema",
)
def _cross_plan_interference(ctx: "AnalysisContext") -> Iterator[Diagnostic]:
    # This rule needs *two* plans, so it cannot fire from a single-plan
    # analyze() pass; registering it here gives it catalogue/SARIF
    # metadata and --select addressing.  Findings are produced by
    # repro.staticcheck.effects.analyze_pair (and the server's admission
    # gate, which calls it).
    return iter(())


def _selfcheck() -> None:
    registered = set(REGISTRY.ids())
    expected = set(SCHEMA_RULE_IDS) | set(PLAN_RULE_IDS)
    missing = expected - registered
    if missing:  # pragma: no cover - import-time invariant
        raise RuntimeError(f"rules not registered: {sorted(missing)}")


_selfcheck()
