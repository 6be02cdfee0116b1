"""Impact analysis: what a schema change *would* do, before doing it.

The schema designer's half of "the timely change and management of the
schema": before an operation is applied to a live objectbase, preview
exactly which types' derived terms change and how.  The analysis runs
the operation on a throwaway copy of the lattice and diffs the derived
structure — so it is exact by construction (same engine, same axioms),
and the live lattice is untouched.

The diff looks only at the rows the operation changed.  By the axioms
every derived term of a type depends only on the types above it, and
the incremental deriver re-derives every type whose ``Pe``/``Ne``
changed into fresh sets while handing every other row over as the same
object; :func:`changed_types` finds the changed rows by identity.

Used by :class:`repro.core.transactions.SchemaTransaction` callers as a
dry-run, and by the TIGUKAT layer (`repro.tigukat.impact`) to extend the
preview to instance counts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable

from .errors import SchemaError, error_code
from .operations import SchemaOperation

if TYPE_CHECKING:  # pragma: no cover
    from .lattice import TypeLattice

__all__ = ["ImpactReport", "analyze_impact", "changed_types", "impact_between"]


@dataclass
class ImpactReport:
    """The projected effect of one operation on the derived schema."""

    operation: SchemaOperation
    accepted: bool
    rejection: str = ""
    #: machine-readable code of the rejection (see ``core.errors``), empty
    #: when accepted.
    rejection_code: str = ""
    types_added: frozenset[str] = frozenset()
    types_removed: frozenset[str] = frozenset()
    #: type -> (P before, P after)
    supertype_changes: dict[str, tuple[frozenset[str], frozenset[str]]] = field(
        default_factory=dict
    )
    #: type -> (properties entering I(t), properties leaving I(t))
    interface_changes: dict[str, tuple[frozenset, frozenset]] = field(
        default_factory=dict
    )

    @property
    def affected_types(self) -> frozenset[str]:
        """Every type whose derived structure would change."""
        return frozenset(
            set(self.supertype_changes)
            | set(self.interface_changes)
            | self.types_added
            | self.types_removed
        )

    @property
    def is_noop(self) -> bool:
        return self.accepted and not self.affected_types

    def summary(self) -> str:
        if not self.accepted:
            return f"REJECTED: {self.rejection}"
        if self.is_noop:
            return "no derived change"
        lines: list[str] = []
        if self.types_added:
            lines.append(f"adds types: {sorted(self.types_added)}")
        if self.types_removed:
            lines.append(f"removes types: {sorted(self.types_removed)}")
        for t, (before, after) in sorted(self.supertype_changes.items()):
            lines.append(
                f"P({t}): {sorted(before)} -> {sorted(after)}"
            )
        for t, (gained, lost) in sorted(self.interface_changes.items()):
            bits = []
            if gained:
                bits.append(f"+{sorted(str(p) for p in gained)}")
            if lost:
                bits.append(f"-{sorted(str(p) for p in lost)}")
            lines.append(f"I({t}): {' '.join(bits)}")
        return "\n".join(lines)


def changed_types(
    before: "TypeLattice", after: "TypeLattice"
) -> frozenset[str]:
    """The types whose rows differ between two lattices of one lineage.

    ``after`` must descend from ``before`` by copies and mutation (a
    trial apply, a symbolic step, an undo probe).  A type is in the
    result when it was added or removed, or when its ``P`` or ``I`` row
    is not the same object in the two derivations: a full re-derivation
    of a type makes fresh ``P``, ``PL``, ``N`` and ``I`` sets, and the
    delta fast path replaces ``N`` and ``I`` whenever ``H`` changes.
    Every type whose ``Pe``/``Ne`` changed is re-derived, so a type
    outside the result has the same designer and derived rows on both
    sides.  The result may hold types re-derived to equal values; it
    never misses a changed row.  The scan is one pointer comparison per
    type.
    """
    old, new = before.derivation, after.derivation
    old_p, old_i, new_p, new_i = old.p, old.i, new.p, new.i
    if old_p is new_p and old_i is new_i:
        return frozenset()
    out = {
        t for t, row in new_p.items()
        if old_p.get(t) is not row or old_i.get(t) is not new_i[t]
    }
    out.update(t for t in old_p if t not in new_p)
    return frozenset(out)


def impact_between(
    operation: SchemaOperation,
    before: "TypeLattice",
    after: "TypeLattice",
    touched: Iterable[str],
) -> ImpactReport:
    """The report of an accepted ``operation`` that took ``before`` to
    ``after``, comparing only ``touched`` (:func:`changed_types` of the
    two: no other type's rows differ)."""
    added: set[str] = set()
    removed: set[str] = set()
    supertype_changes: dict[str, tuple[frozenset[str], frozenset[str]]] = {}
    interface_changes: dict[str, tuple[frozenset, frozenset]] = {}
    for t in touched:
        if t not in before:
            added.add(t)
        elif t not in after:
            removed.add(t)
        else:
            p_before, p_after = before.p(t), after.p(t)
            if p_before != p_after:
                supertype_changes[t] = (p_before, p_after)
            i_before, i_after = before.interface(t), after.interface(t)
            if i_before != i_after:
                interface_changes[t] = (
                    i_after - i_before,   # gained
                    i_before - i_after,   # lost
                )
    return ImpactReport(
        operation,
        accepted=True,
        types_added=frozenset(added),
        types_removed=frozenset(removed),
        supertype_changes=supertype_changes,
        interface_changes=interface_changes,
    )


def analyze_impact(
    lattice: "TypeLattice", operation: SchemaOperation
) -> ImpactReport:
    """Dry-run ``operation`` and report the projected derived changes.

    Never mutates ``lattice``.  A rejected operation reports
    ``accepted=False`` with the rejection reason instead of raising.
    """
    trial = lattice.copy()
    try:
        operation.apply(trial)
    except SchemaError as exc:
        return ImpactReport(
            operation,
            accepted=False,
            rejection=str(exc),
            rejection_code=error_code(exc),
        )
    return impact_between(
        operation, lattice, trial, changed_types(lattice, trial)
    )
