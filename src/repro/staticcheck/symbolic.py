"""Symbolic (dry-run) execution of an evolution plan.

The evaluator abstract-interprets a plan against a *copy* of the input
lattice: each step is applied to a copy of the state before it (the
live engine, the same axioms, so the abstraction is exact).  A rejected
step is recorded as *doomed* with its rejection reason and execution
continues on the unchanged state, so one bad operation does not hide
hazards further down the plan.

The resulting :class:`PlanTrace` keeps, per step, the operation, its
acceptance, its :class:`~repro.core.impact.ImpactReport`, and the full
derived lattice state before and after (``P``/``PL``/``N``/``H``/``I``
all queryable through the snapshots).  Rules consume the trace; nothing
here ever touches the caller's lattice, journal, or WAL.

By the axioms every derived term of a type depends only on the types
above it, so a step can be judged from the rows it changed.  Each step
records those types (``touched``, found by
:func:`repro.core.impact.changed_types`), and its impact report, like
``analyze_impact``'s, compares only them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from ..core.errors import SchemaError, error_code
from ..core.impact import ImpactReport, changed_types, impact_between

if TYPE_CHECKING:  # pragma: no cover
    from ..core.lattice import TypeLattice
    from ..core.operations import SchemaOperation
    from .plan import EvolutionPlan

__all__ = ["StepOutcome", "PlanTrace", "symbolic_run"]


@dataclass(frozen=True)
class StepOutcome:
    """One plan step under symbolic execution.

    ``before``/``after`` are shared snapshots (a rejected step's
    ``after`` *is* its ``before``); treat them as read-only.
    """

    index: int
    operation: "SchemaOperation"
    accepted: bool
    rejection: str
    impact: ImpactReport
    before: "TypeLattice"
    after: "TypeLattice"
    #: machine-readable code of the rejection (the same taxonomy the live
    #: engine raises — see ``repro.core.errors``); empty when accepted.
    rejection_code: str = ""
    #: :func:`~repro.core.impact.changed_types` of ``before`` and
    #: ``after``: the only types whose rows this step can have changed
    #: (empty when rejected).
    touched: frozenset[str] = frozenset()

    @property
    def changed(self) -> bool:
        return self.accepted and not self.impact.is_noop

    def describe(self) -> str:
        status = "ok" if self.accepted else f"DOOMED ({self.rejection})"
        return f"step {self.index}: {self.operation.describe()} -> {status}"


@dataclass(frozen=True)
class PlanTrace:
    """The full symbolic execution: initial state, steps, final state."""

    initial: "TypeLattice"
    steps: tuple[StepOutcome, ...]
    final: "TypeLattice"

    def __iter__(self) -> Iterator[StepOutcome]:
        return iter(self.steps)

    def __len__(self) -> int:
        return len(self.steps)

    @property
    def doomed(self) -> tuple[StepOutcome, ...]:
        return tuple(s for s in self.steps if not s.accepted)

    @property
    def accepted(self) -> tuple[StepOutcome, ...]:
        return tuple(s for s in self.steps if s.accepted)

    def state_after(self, index: int) -> "TypeLattice":
        """The symbolic lattice right after step ``index`` (read-only)."""
        return self.steps[index].after


def symbolic_run(lattice: "TypeLattice", plan: "EvolutionPlan") -> PlanTrace:
    """Abstract-interpret ``plan`` against a copy of ``lattice``.

    Never mutates ``lattice``.  Rejected steps do not stop the run; the
    state simply carries over (the closest sound approximation of "the
    migration driver skips or aborts here", and the one that lets later
    rules keep reporting).
    """
    initial = lattice.copy()
    work = initial
    steps: list[StepOutcome] = []
    for index, op in enumerate(plan):
        trial = work.copy()
        try:
            op.apply(trial)
        except SchemaError as exc:
            impact = ImpactReport(
                op, accepted=False, rejection=str(exc),
                rejection_code=error_code(exc),
            )
            steps.append(StepOutcome(
                index=index,
                operation=op,
                accepted=False,
                rejection=impact.rejection,
                impact=impact,
                before=work,
                after=work,
                rejection_code=impact.rejection_code,
            ))
            continue
        touched = changed_types(work, trial)
        steps.append(StepOutcome(
            index=index,
            operation=op,
            accepted=True,
            rejection="",
            impact=impact_between(op, work, trial, touched),
            before=work,
            after=trial,
            touched=touched,
        ))
        work = trial
    return PlanTrace(initial=initial, steps=tuple(steps), final=work)
