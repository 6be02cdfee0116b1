"""Static analysis of schemas and whole evolution plans (no execution).

The axioms make schema consistency *checkable*; this subsystem makes it
checkable **ahead of time**.  A symbolic evaluator
(:mod:`~repro.staticcheck.symbolic`) abstract-interprets an evolution
plan — a sequence of the paper's operations, loadable from a plan file
or an existing WAL journal (:mod:`~repro.staticcheck.plan`) — against a
copy of the lattice, tracking the derived ``P``/``PL``/``N``/``H``/``I``
state per step.  Diagnostics flow through a pluggable rule registry
(:mod:`~repro.staticcheck.registry`, built-ins in
:mod:`~repro.staticcheck.rules`) and render as human text, JSON, or
SARIF 2.1.0 (:mod:`~repro.staticcheck.emit`) for CI annotation.

The Section 5 Orion-vs-TIGUKAT order-dependence hazard is detected by
replaying a plan's edge drops under both engine policies
(:mod:`~repro.staticcheck.engines`) and diffing the final lattices.

Entry point::

    from repro.staticcheck import analyze, load_plan
    report = analyze(lattice, load_plan("migration.json"))
    for finding in report:
        print(finding)
"""

from .analyzer import (
    AnalysisContext,
    AnalysisReport,
    analyze,
    analyze_schema,
    plan_rule_ids,
)
from .effects import (
    EffectSummary,
    analyze_pair,
    conflict_witness,
    effect_summary,
    ops_commute,
    plan_summaries,
    summaries_conflict,
)
from .emit import render_json, render_sarif, render_text, sarif_dict
from .engines import OrderHazard, find_order_hazard, mirror_to_orion
from .fixes import (
    DeleteStep,
    FixResult,
    InsertStep,
    MoveStep,
    PlanEdit,
    ReplaceStep,
    apply_baseline,
    apply_edits,
    fix_plan,
    plan_diff,
    write_baseline,
)
from .plan import EvolutionPlan, load_plan, plan_from_journal
from .registry import (
    REGISTRY,
    Diagnostic,
    Rule,
    RuleRegistry,
    Severity,
    rule,
)
from .rules import PLAN_RULE_IDS, SCHEMA_RULE_IDS
from .symbolic import PlanTrace, StepOutcome, symbolic_run

__all__ = [
    "analyze",
    "analyze_schema",
    "plan_rule_ids",
    "AnalysisContext",
    "AnalysisReport",
    "EvolutionPlan",
    "load_plan",
    "plan_from_journal",
    "PlanTrace",
    "StepOutcome",
    "symbolic_run",
    "Diagnostic",
    "Severity",
    "Rule",
    "RuleRegistry",
    "REGISTRY",
    "rule",
    "SCHEMA_RULE_IDS",
    "PLAN_RULE_IDS",
    "OrderHazard",
    "find_order_hazard",
    "mirror_to_orion",
    "render_text",
    "render_json",
    "render_sarif",
    "sarif_dict",
    "EffectSummary",
    "effect_summary",
    "plan_summaries",
    "conflict_witness",
    "summaries_conflict",
    "ops_commute",
    "analyze_pair",
    "PlanEdit",
    "DeleteStep",
    "InsertStep",
    "ReplaceStep",
    "MoveStep",
    "apply_edits",
    "fix_plan",
    "FixResult",
    "plan_diff",
    "write_baseline",
    "apply_baseline",
]
