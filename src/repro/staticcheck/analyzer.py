"""The analyzer driver: run selected rules over a schema and/or a plan.

:func:`analyze` is the single entry point the CLI, the benchmarks, and
the tests share.  Given a lattice (the current schema) and optionally an
:class:`~repro.staticcheck.plan.EvolutionPlan`, it

1. symbolically executes the plan (:mod:`repro.staticcheck.symbolic`) —
   never mutating the input lattice;
2. runs every selected *plan*-scope rule over the trace;
3. runs every selected *schema*-scope rule over the **final** symbolic
   state (what the schema would look like if the plan ran) — or over the
   lattice itself when there is no plan;
4. returns an :class:`AnalysisReport` the emitters render as text, JSON,
   or SARIF.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field, replace
from time import perf_counter
from typing import TYPE_CHECKING, Iterable

from ..obs.metrics import REGISTRY as _METRICS
from .registry import (
    REGISTRY,
    Diagnostic,
    Rule,
    RuleRegistry,
    Severity,
    normalize_diagnostic,
)
from .symbolic import PlanTrace, symbolic_run

if TYPE_CHECKING:  # pragma: no cover
    from ..core.lattice import TypeLattice
    from .plan import EvolutionPlan

__all__ = [
    "AnalysisContext",
    "AnalysisReport",
    "analyze",
    "analyze_schema",
    "plan_rule_ids",
]

logger = logging.getLogger(__name__)

_ANALYZE_RUNS = _METRICS.counter(
    "repro_staticcheck_runs_total", "Static-analyzer invocations"
)
_PLANS_SCANNED = _METRICS.counter(
    "repro_staticcheck_plans_total",
    "Evolution plans symbolically dry-run by the analyzer",
)
_RULES_FIRED = _METRICS.counter(
    "repro_staticcheck_rules_fired_total",
    "Diagnostics produced, by rule id",
    ("rule",),
)
_ANALYZE_SECONDS = _METRICS.histogram(
    "repro_staticcheck_seconds", "Wall time of one analyzer run"
)


@dataclass
class AnalysisContext:
    """Everything a rule checker may look at."""

    lattice: "TypeLattice"
    plan: "EvolutionPlan | None" = None
    trace: PlanTrace | None = None

    @property
    def schema(self) -> "TypeLattice":
        """The schema state that schema-scope rules analyze: the final
        symbolic state under the plan, or the lattice itself."""
        return self.trace.final if self.trace is not None else self.lattice


@dataclass
class AnalysisReport:
    """The analyzer's result: ordered diagnostics plus run metadata."""

    diagnostics: tuple[Diagnostic, ...] = ()
    rules_run: tuple[str, ...] = ()
    plan: "EvolutionPlan | None" = None
    trace: PlanTrace | None = None
    counts: dict[Severity, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.counts:
            self.counts = {s: 0 for s in Severity}
            for d in self.diagnostics:
                self.counts[d.severity] += 1

    def __len__(self) -> int:
        return len(self.diagnostics)

    def __iter__(self):
        return iter(self.diagnostics)

    @property
    def max_severity(self) -> Severity | None:
        return max((d.severity for d in self.diagnostics), default=None)

    def at_least(self, threshold: Severity) -> tuple[Diagnostic, ...]:
        return tuple(
            d for d in self.diagnostics if d.severity >= threshold
        )

    def by_rule(self, rule_id: str) -> tuple[Diagnostic, ...]:
        return tuple(d for d in self.diagnostics if d.rule_id == rule_id)

    def summary(self) -> str:
        parts = [
            f"{self.counts[s]} {s}"
            for s in (Severity.ERROR, Severity.WARNING, Severity.INFO)
            if self.counts[s]
        ]
        detail = f" ({', '.join(parts)})" if parts else ""
        return f"{len(self.diagnostics)} finding(s){detail}"


def _sort_key(d: Diagnostic) -> tuple:
    # Plan findings first, in step order, severe first; then schema-state
    # findings grouped by rule.
    return (
        0 if d.step is not None else 1,
        d.step if d.step is not None else 0,
        -int(d.severity),
        d.rule_id,
        d.subject,
        d.message,
    )


def _run_rules(
    rules: Iterable[Rule], ctx: AnalysisContext
) -> list[Diagnostic]:
    out: list[Diagnostic] = []
    for rule in rules:
        out.extend(
            normalize_diagnostic(rule, d) for d in rule.check(ctx)
        )
    return out


def _attach_provenance(
    diagnostics: list[Diagnostic], plan: "EvolutionPlan | None"
) -> list[Diagnostic]:
    """Fill ``source``/``line`` on plan-step findings from the plan's
    file provenance (a no-op for plans built in memory)."""
    if plan is None or not plan.source:
        return diagnostics
    out: list[Diagnostic] = []
    for d in diagnostics:
        if d.source or d.step is None:
            out.append(d)
            continue
        out.append(
            replace(d, source=plan.source, line=plan.line_of(d.step))
        )
    return out


def analyze(
    lattice: "TypeLattice",
    plan: "EvolutionPlan | None" = None,
    *,
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
    registry: RuleRegistry | None = None,
) -> AnalysisReport:
    """Run the static analyzer; see the module docstring.

    ``select``/``ignore`` narrow the rule set by id or id prefix
    (ignore wins).  The input ``lattice`` is never mutated.
    """
    registry = registry if registry is not None else REGISTRY
    active = registry.select(select, ignore)
    started = perf_counter()
    trace = symbolic_run(lattice, plan) if plan is not None else None
    ctx = AnalysisContext(lattice=lattice, plan=plan, trace=trace)

    diagnostics = _run_rules(
        (r for r in active if r.scope == "plan" and trace is not None), ctx
    )
    diagnostics += _run_rules(
        (r for r in active if r.scope == "schema"), ctx
    )
    diagnostics = _attach_provenance(diagnostics, plan)
    _ANALYZE_RUNS.inc()
    if plan is not None:
        _PLANS_SCANNED.inc()
    for d in diagnostics:
        _RULES_FIRED.labels(rule=d.rule_id).inc()
    _ANALYZE_SECONDS.observe(perf_counter() - started)
    logger.info(
        "analyzed %s with %d rule(s): %d finding(s)",
        f"plan {plan.name!r}" if plan is not None else "schema",
        len(active), len(diagnostics),
    )
    return AnalysisReport(
        diagnostics=tuple(sorted(diagnostics, key=_sort_key)),
        rules_run=tuple(r.rule_id for r in active),
        plan=plan,
        trace=trace,
    )


def plan_rule_ids() -> tuple[str, ...]:
    """The ids of the registered plan-scope rules.

    The admission gates select exactly these: only plan findings (``step
    is not None``) can veto a write, so the schema-scope rules would run
    over the whole lattice for findings the gate throws away.
    """
    return tuple(r.rule_id for r in REGISTRY if r.scope == "plan")


def analyze_schema(
    lattice: "TypeLattice",
    select: Iterable[str] | None = None,
    ignore: Iterable[str] | None = None,
) -> tuple[Diagnostic, ...]:
    """Schema-scope rules only: the advisory lint of one lattice state."""
    schema_ids = tuple(r.rule_id for r in REGISTRY if r.scope == "schema")
    wanted = schema_ids if select is None else tuple(select)
    report = analyze(lattice, select=wanted, ignore=ignore)
    return tuple(d for d in report.diagnostics if d.rule_id in schema_ids)
