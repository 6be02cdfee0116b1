"""Differential fuzz test: the edit-scoped gate against whole-schema code.

The admission gate runs only the plan-scope rules; the symbolic run's
impact reports, three of the plan rules (``late-name-conflict``,
``redundancy-introduced``, ``undo-unsafe-step``) and the effect
summaries look only at the types whose rows a step changed; and the DDL
differ orders types with a heap.  Each of these
must give exactly what the whole-schema computation gives.  The
whole-schema versions live here as reference code only.
"""

from __future__ import annotations

import random

import pytest

from repro.analysis import LatticeSpec, random_lattice, random_plan
from repro.api import run_lint_gate
from repro.concurrent import ConcurrentObjectbase
from repro.core.errors import (
    DDLValidationError,
    LintRejectedError,
    SchemaError,
    error_code,
)
from repro.core.impact import ImpactReport, analyze_impact
from repro.core.minimality import diff_lattices
from repro.core.operations import DropPropertyEverywhere, DropType
from repro.core.properties import Property
from repro.ddl import SchemaDecl, TypeDecl, differ
from repro.ddl.differ import diff_schemas, schema_from
from repro.orion.conflict import find_name_conflicts_minimal
from repro.server import ObjectbaseService
from repro.staticcheck import (
    EvolutionPlan,
    Severity,
    analyze,
    effect_summary,
    effects,
    plan_summaries,
    symbolic_run,
)

SEEDS = range(6)
SIZES = (30, 120, 300)


def _plan(n_types: int, seed: int) -> tuple:
    """A random lattice and a random plan over it: DT, MT-DSR, MT-DB and
    rejected steps included, plus one DT and one DB (drop everywhere).
    On odd seeds the DB names its property by a bare semantics key, so
    its inverse re-adds another payload (an undo-unsafe step)."""
    lattice = random_lattice(
        LatticeSpec(n_types=n_types, seed=seed, extra_essential_prob=0.2)
    )
    ops = random_plan(lattice, 12, seed=1000 + seed)
    rng = random.Random(seed)
    props = sorted(lattice.universe, key=lambda p: p.semantics)
    dropped = rng.choice(props)
    ops.insert(rng.randrange(len(ops) + 1), DropPropertyEverywhere(
        Property(dropped.semantics) if seed % 2 else dropped
    ))
    types = sorted(lattice.types() - {lattice.root, lattice.base})
    ops.insert(rng.randrange(len(ops) + 1), DropType(rng.choice(types)))
    return lattice, EvolutionPlan(ops, name=f"fuzz-{n_types}-{seed}")


CASES = [(n, seed) for n in SIZES for seed in SEEDS]


@pytest.fixture(scope="module", params=CASES, ids=lambda c: f"{c[0]}t-s{c[1]}")
def case(request):
    return _plan(*request.param)


def _fields(diagnostics) -> list[tuple]:
    return [
        (d.rule_id, d.step, d.subject, d.severity, d.message)
        for d in diagnostics
    ]


def test_fuzz_covers_every_step_kind():
    codes, rejected = set(), 0
    for n, seed in CASES:
        lattice, plan = _plan(n, seed)
        codes.update(op.code for op in plan)
        rejected += len(symbolic_run(lattice, plan).doomed)
    assert {"DT", "MT-DSR", "MT-DB", "DB", "AT", "MT-ASR", "MT-AB"} <= codes
    assert rejected > 0


# -- (a) the gate's verdict and diagnostics ------------------------------


def test_gate_equals_full_analysis_filtered_to_plan_findings(case):
    lattice, plan = case
    full = [d for d in analyze(lattice, plan) if d.step is not None]
    gated = run_lint_gate(lattice, plan, "off")
    assert _fields(gated.diagnostics) == _fields(full)

    for lint, threshold in (
        ("info", Severity.INFO),
        ("warn", Severity.WARNING),
        ("error", Severity.ERROR),
    ):
        offending = [d.as_dict() for d in full if d.severity >= threshold]
        try:
            run_lint_gate(lattice, plan, lint)
            vetoed = None
        except LintRejectedError as exc:
            vetoed = exc.diagnostics
        assert vetoed == (offending or None)


def test_server_gate_verdict_equals_full_analysis(case):
    lattice, plan = case
    full = [d for d in analyze(lattice, plan) if d.step is not None]
    store = ConcurrentObjectbase.in_memory()
    for mode, threshold in (("warn", Severity.WARNING),
                            ("error", Severity.ERROR)):
        service = ObjectbaseService(store, lint=mode)
        gate, _ = service._make_gate(list(plan), None)
        offending = [d for d in full if d.severity >= threshold]
        try:
            gate(lattice)
            vetoed = []
        except LintRejectedError as exc:
            vetoed = [(d["rule"], d["step"], d["message"])
                      for d in exc.diagnostics]
        assert vetoed == [(d.rule_id, d.step, d.message) for d in offending]


# -- (b) the scoped trace, rules and summaries ---------------------------


def _ref_impact(lattice, operation) -> ImpactReport:
    trial = lattice.copy()
    try:
        operation.apply(trial)
    except SchemaError as exc:
        return ImpactReport(
            operation, accepted=False, rejection=str(exc),
            rejection_code=error_code(exc),
        )
    diff = diff_lattices(lattice, trial)
    return ImpactReport(
        operation,
        accepted=True,
        types_added=diff.only_right,
        types_removed=diff.only_left,
        supertype_changes=dict(diff.edge_changes),
        interface_changes={
            t: (frozenset(after - before), frozenset(before - after))
            for t, (before, after) in diff.interface_changes.items()
        },
    )


def test_symbolic_steps_equal_the_live_engine(case):
    """Each step's impact report (computed over the touched types) is
    the whole-lattice diff, as ``analyze_impact`` gives it, and its
    after-state is what applying the operation to a copy of its
    before-state gives."""
    lattice, plan = case
    for step in symbolic_run(lattice, plan):
        reference = _ref_impact(step.before, step.operation)
        assert step.impact == reference
        assert analyze_impact(step.before, step.operation) == reference
        if step.accepted:
            expected = step.before.copy()
            step.operation.apply(expected)
            assert (
                step.after.state_fingerprint(),
                step.after.derived_fingerprint(),
            ) == (
                expected.state_fingerprint(),
                expected.derived_fingerprint(),
            )
        else:
            assert step.after is step.before and not step.touched


def _ref_conflicts(lattice) -> frozenset:
    return frozenset(
        (t, name)
        for t in lattice.types()
        for name in find_name_conflicts_minimal(lattice, t)
    )


def _ref_late_name_conflicts(trace) -> list[tuple]:
    out = []
    before = _ref_conflicts(trace.initial)
    for step in trace:
        if not step.changed:
            continue
        after = _ref_conflicts(step.after)
        for t, name in sorted(after - before):
            out.append((
                step.index, t,
                f"{step.operation.describe()} introduces a name "
                f"conflict: {name!r} becomes ambiguous in I({t})",
            ))
        before = after
    return out


def _ref_redundancies(lattice) -> frozenset:
    base, root = lattice.base, lattice.root
    out = set()
    for t in lattice.types():
        if t != base:
            for s in lattice.pe(t) - lattice.p(t):
                if s != root:
                    out.add(("pe", t, s))
        for p in lattice.ne(t) - lattice.n(t):
            out.add(("ne", t, p.semantics))
    return frozenset(out)


def _ref_redundancy_introduced(trace) -> list[tuple]:
    out = []
    before = _ref_redundancies(trace.initial)
    for step in trace:
        if not step.accepted:
            continue
        after = _ref_redundancies(step.after)
        for kind, t, what in sorted(
            after - before, key=lambda e: (e[0], e[1], str(e[2]))
        ):
            term = "Pe" if kind == "pe" else "Ne"
            out.append((
                step.index, t,
                f"{step.operation.describe()} makes {what!r} "
                f"redundant in {term}({t})",
            ))
        before = after
    return out


def _ref_payload_rows(lattice) -> frozenset:
    return frozenset(
        (t, p.semantics, p.name, p.domain)
        for t in lattice.types()
        for p in lattice.ne(t)
    )


def _ref_undo_unsafe(trace) -> list[tuple]:
    out = []
    for step in trace:
        if not step.accepted:
            continue
        before = step.before
        work = before.copy()
        result = step.operation.apply(work)
        if not result.changed:
            continue
        problem = ""
        try:
            for inv in result.inverse:
                inv.apply(work)
        except SchemaError as exc:
            problem = f"the inverse is rejected ({exc})"
        if not problem and (
            work.state_fingerprint() != before.state_fingerprint()
            or work.derived_fingerprint() != before.derived_fingerprint()
        ):
            problem = "the derived P/PL/N/H/I state is not restored"
        if not problem and _ref_payload_rows(work) != _ref_payload_rows(
            before
        ):
            problem = (
                "property payloads drift (display name or domain is "
                "replaced by the inverse's canonical copy)"
            )
        if problem:
            subject = getattr(
                step.operation, "name",
                getattr(step.operation, "subject", ""),
            )
            out.append((
                step.index, subject,
                f"undoing {step.operation.describe()} does not "
                f"round-trip: {problem}",
            ))
    return out


@pytest.mark.parametrize("rule_id, reference", [
    ("late-name-conflict", _ref_late_name_conflicts),
    ("redundancy-introduced", _ref_redundancy_introduced),
    ("undo-unsafe-step", _ref_undo_unsafe),
])
def test_scoped_rule_equals_whole_lattice_rule(case, rule_id, reference):
    lattice, plan = case
    report = analyze(lattice, plan, select=[rule_id])
    scoped = sorted((d.step, d.subject, d.message) for d in report)
    assert scoped == sorted(reference(symbolic_run(lattice, plan)))


def _ref_cone(lattice, name):
    if name not in lattice:
        return {("derived", name)}
    base = lattice.base
    cells = {("derived", t) for t in lattice.all_subtypes(name) if t != base}
    cells.add(("derived", name))
    return cells


def test_scoped_summaries_equal_whole_lattice_summaries(case, monkeypatch):
    lattice, plan = case
    trace = symbolic_run(lattice, plan)
    scoped = plan_summaries(trace)
    monkeypatch.setattr(effects, "_cone", _ref_cone)
    reference = [effect_summary(s.before, s.operation) for s in trace]
    assert scoped == reference


def test_fuzz_exercises_the_scoped_rules():
    fired = set()
    for n, seed in CASES:
        lattice, plan = _plan(n, seed)
        fired.update(d.rule_id for d in run_lint_gate(lattice, plan, "off"))
    assert {"late-name-conflict", "redundancy-introduced",
            "undo-unsafe-step", "doomed-operation"} <= fired


# -- (c) the DDL differ's ordering ----------------------------------------


def _ref_topo_order(names, supers):
    remaining = {n: set(supers.get(n, ())) & names for n in names}
    out = []
    ready = sorted(n for n, deps in remaining.items() if not deps)
    while ready:
        n = ready.pop(0)
        out.append(n)
        del remaining[n]
        newly = [
            m for m, deps in remaining.items()
            if n in deps and not (deps.discard(n) or deps)
        ]
        ready = sorted(set(ready) | set(newly))
    return out if not remaining else None


def _random_graph(rng: random.Random, n: int, cyclic: bool):
    names = [f"T_{rng.randrange(10**6):06d}_{i}" for i in range(n)]
    supers = {
        name: set(rng.sample(names[:i], min(i, rng.randint(0, 3))))
        for i, name in enumerate(names)
    }
    # Names outside the set must be ignored, as the differ's callers
    # pass the root and frozen types along.
    supers[names[-1]].add("T_object")
    if cyclic and n > 1:
        low, high = sorted(rng.sample(range(n), 2))
        supers[names[low]].add(names[high])
        chain = names[low]
        for name in names[low + 1:high + 1]:
            supers[name].add(chain)
            chain = name
    return frozenset(names), supers


@pytest.mark.parametrize("seed", range(40))
def test_topo_order_equals_reference(seed):
    rng = random.Random(seed)
    for n in (1, 2, 7, 60):
        for cyclic in (False, True):
            names, supers = _random_graph(rng, n, cyclic)
            expected = _ref_topo_order(names, supers)
            assert differ._topo_order(names, supers) == expected
            if cyclic and n > 1:
                assert expected is None


def _random_target(lattice, rng: random.Random, cyclic: bool) -> SchemaDecl:
    """The lattice's DDL with types dropped, added and re-parented."""
    decls = {t.name: t for t in schema_from(lattice)}
    for name in rng.sample(sorted(decls), len(decls) // 10):
        del decls[name]
    for name in list(decls):
        t = decls[name]
        decls[name] = TypeDecl(
            name,
            tuple(s for s in t.supertypes if s in decls),
            t.properties,
        )
    names = sorted(decls)
    for i in range(len(names) // 8):
        new = f"T_new{i:03d}"
        decls[new] = TypeDecl(new, tuple(rng.sample(names, 2)))
        names.append(new)
    if cyclic:
        a, b = rng.sample(sorted(decls), 2)
        decls[a] = TypeDecl(a, decls[a].supertypes + (b,), decls[a].properties)
        decls[b] = TypeDecl(b, decls[b].supertypes + (a,), decls[b].properties)
    return SchemaDecl(tuple(decls.values()))


@pytest.mark.parametrize("seed", range(6))
def test_diff_schemas_equals_reference_order(seed, monkeypatch):
    lattice = random_lattice(LatticeSpec(n_types=80, seed=seed))
    rng = random.Random(seed)
    target = _random_target(lattice, rng, cyclic=False)
    plan = diff_schemas(lattice, target)
    assert plan.operations
    cyclic = _random_target(lattice, rng, cyclic=True)
    with pytest.raises(DDLValidationError):
        diff_schemas(lattice, cyclic)

    monkeypatch.setattr(differ, "_topo_order", _ref_topo_order)
    reference = diff_schemas(lattice, target)
    assert [op.to_dict() for op in plan] == [
        op.to_dict() for op in reference
    ]
    with pytest.raises(DDLValidationError):
        diff_schemas(lattice, cyclic)

