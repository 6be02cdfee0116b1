"""Effect summaries, the commutativity oracle, and its differential check.

The load-bearing property is one-sided soundness: ``ops_commute`` may cry
wolf ("may conflict" on a pair that actually commutes), but a "commutes"
verdict must **never** be wrong.  The fuzz classes below enforce that
direction against real execution — several hundred seeded operation
pairs, both orders, acceptance and final fingerprints compared — and do
the same for the ``undo-unsafe-step`` rule against the real journal's
undo machinery.
"""

from __future__ import annotations

import random

from repro.api import Objectbase
from repro.analysis.workload import (
    LatticeSpec,
    random_lattice,
    random_plan,
    random_plan_pair,
)
from repro.core import (
    AddEssentialProperty,
    AddType,
    DropPropertyEverywhere,
    DropType,
    LatticePolicy,
    Property,
    TypeLattice,
)
from repro.core.errors import SchemaError
from repro.staticcheck import (
    EvolutionPlan,
    analyze,
    analyze_pair,
    effect_summary,
    ops_commute,
    plan_summaries,
    summaries_conflict,
    symbolic_run,
)
from repro.staticcheck.effects import conflict_witness


def _family():
    """T_person <- T_student, person carries a property."""
    lat = TypeLattice(LatticePolicy.tigukat())
    lat.add_type("T_person", properties=[Property("person.name")])
    lat.add_type("T_student", supertypes=["T_person"])
    return lat


class TestEffectSummaries:
    def test_addtype_writes_type_edges_and_cone(self):
        lat = _family()
        s = effect_summary(lat, AddType("T_emp", ("T_person",)))
        assert ("type", "T_emp") in s.writes
        assert ("pe", "T_emp", "T_person") in s.writes
        assert ("derived", "T_emp") in s.writes
        # The supertype's own derived row is untouched by a new leaf.
        assert ("derived", "T_person") not in s.writes

    def test_droptype_reads_incoming_edges_wildcard(self):
        lat = _family()
        s = effect_summary(lat, DropType("T_person"))
        assert ("pe-in", "T_person") in s.reads
        # The cone covers the subtype's derived state.
        assert ("derived", "T_student") in s.writes

    def test_rejected_operation_publishes_no_writes(self):
        lat = _family()
        s = effect_summary(lat, DropType("T_ghost"))
        assert not s.accepted
        assert s.writes == frozenset()
        assert s.reads  # but its acceptance dependence is still visible

    def test_policy_root_edge_is_not_a_cell(self):
        lat = _family()
        s = effect_summary(lat, AddType("T_top", ()))
        assert not any(
            c[0] == "pe" and c[2] == lat.root for c in s.writes
        )

    def test_drop_property_everywhere_scans_all_rows(self):
        lat = _family()
        s = effect_summary(lat, DropPropertyEverywhere(Property("person.name")))
        assert ("ne-any", "person.name") in s.reads
        assert ("ne", "T_person", "person.name") in s.writes


class TestConflictAlgebra:
    def test_disjoint_summaries_commute(self):
        lat = _family()
        a = effect_summary(lat, AddEssentialProperty(
            "T_student", Property("student.gpa")))
        b = effect_summary(lat, AddType("T_course", ()))
        assert not summaries_conflict(a, b)
        assert ops_commute(
            lat,
            AddEssentialProperty("T_student", Property("student.gpa")),
            AddType("T_course", ()),
        )

    def test_wildcard_read_catches_concrete_write(self):
        lat = _family()
        drop = effect_summary(lat, DropType("T_person"))
        add_sub = effect_summary(
            lat, AddType("T_emp", ("T_person",)))
        assert summaries_conflict(drop, add_sub)
        witness = conflict_witness(drop, add_sub)
        assert witness  # names the overlapping cells

    def test_writes_on_same_cell_conflict(self):
        lat = _family()
        a = effect_summary(lat, AddEssentialProperty(
            "T_student", Property("x.y")))
        b = effect_summary(lat, AddEssentialProperty(
            "T_student", Property("x.y")))
        assert summaries_conflict(a, b)

    def test_plan_summaries_track_evaluation_state(self):
        lat = _family()
        plan = EvolutionPlan([
            AddType("T_emp", ("T_person",)),
            DropType("T_emp"),  # accepted only because step 0 ran
        ])
        sums = plan_summaries(symbolic_run(lat, plan))
        assert len(sums) == 2
        assert sums[1].accepted
        assert ("type", "T_emp") in sums[1].writes


class TestAnalyzePair:
    def test_interfering_pair_is_flagged(self):
        lat = _family()
        a = EvolutionPlan([DropType("T_person")], name="A")
        b = EvolutionPlan([AddType("T_emp", ("T_person",))], name="B")
        report = analyze_pair(lat, a, b)
        findings = report.by_rule("cross-plan-interference")
        assert findings
        assert "T_person" in findings[0].message

    def test_independent_pair_is_clean(self):
        lat = _family()
        a = EvolutionPlan([AddType("T_course", ())], name="A")
        b = EvolutionPlan([AddEssentialProperty(
            "T_student", Property("student.gpa"))], name="B")
        report = analyze_pair(lat, a, b)
        assert not report.by_rule("cross-plan-interference")

    def test_random_plan_pair_is_deterministic(self):
        lat = random_lattice(LatticeSpec(n_types=10, seed=3))
        p1 = random_plan_pair(lat, 5, seed=42)
        p2 = random_plan_pair(lat, 5, seed=42)
        assert [op.describe() for op in p1[0]] == \
               [op.describe() for op in p2[0]]
        assert [op.describe() for op in p1[1]] == \
               [op.describe() for op in p2[1]]
        # The two halves are decorrelated streams.
        assert [op.describe() for op in p1[0]] != \
               [op.describe() for op in p1[1]]


# ----------------------------------------------------------------------
# Differential fuzz oracle
# ----------------------------------------------------------------------


def _execute(lattice, order):
    """Apply ``order`` on a copy; (per-op acceptance, fingerprints)."""
    work = lattice.copy()
    accepted = {}
    for op in order:
        try:
            op.apply(work)
            accepted[id(op)] = True
        except SchemaError:
            accepted[id(op)] = False
    return accepted, work.state_fingerprint(), work.derived_fingerprint()


def _fuzz_pairs(n_pairs):
    """Seeded (lattice, op_a, op_b) triples across several base schemas."""
    out = []
    seed = 0
    while len(out) < n_pairs:
        lat = random_lattice(
            LatticeSpec(n_types=8 + (seed % 5), seed=1000 + seed % 7)
        )
        ops = random_plan(lat, 2, seed)
        seed += 1
        if len(ops) == 2:
            out.append((lat, ops[0], ops[1]))
    return out


class TestDifferentialCommutativity:
    PAIRS = 250

    def test_commutes_verdict_is_never_wrong(self):
        commuting = conflicting = diverged = 0
        for lat, a, b in _fuzz_pairs(self.PAIRS):
            if not ops_commute(lat, a, b):
                conflicting += 1
                continue
            commuting += 1
            acc_ab, st_ab, dv_ab = _execute(lat, (a, b))
            acc_ba, st_ba, dv_ba = _execute(lat, (b, a))
            if (st_ab, dv_ab) != (st_ba, dv_ba) or acc_ab != acc_ba:
                diverged += 1
        assert diverged == 0, (
            f"{diverged} 'commutes' verdicts were wrong "
            f"(of {commuting} commuting / {conflicting} conflicting)"
        )
        # Neither arm of the oracle may be vacuous.
        assert commuting >= self.PAIRS // 10
        assert conflicting >= self.PAIRS // 10

    def test_clean_pair_analysis_implies_order_independence(self):
        """analyze_pair finding nothing ⇒ A;B ≡ B;A for whole plans."""
        checked = 0
        for seed in range(60):
            lat = random_lattice(LatticeSpec(n_types=9, seed=2000 + seed))
            plan_a_ops, plan_b_ops = random_plan_pair(lat, 3, seed)
            report = analyze_pair(
                lat,
                EvolutionPlan(plan_a_ops, name="A"),
                EvolutionPlan(plan_b_ops, name="B"),
            )
            if report.by_rule("cross-plan-interference"):
                continue
            checked += 1
            _, st_ab, dv_ab = _execute(lat, (*plan_a_ops, *plan_b_ops))
            _, st_ba, dv_ba = _execute(lat, (*plan_b_ops, *plan_a_ops))
            assert (st_ab, dv_ab) == (st_ba, dv_ba), (
                f"seed {seed}: clean pair diverged under reordering"
            )
        assert checked >= 5  # the clean arm must actually exercise


class TestDifferentialUndoSafety:
    def test_unflagged_steps_round_trip_through_real_undo(self):
        """No undo-unsafe-step finding ⇒ the journal's actual undo
        restores designer state, derived state, and payload rows."""
        rng = random.Random(7)
        flagged = checked = 0
        for seed in range(120):
            lat = random_lattice(LatticeSpec(n_types=7, seed=3000 + seed))
            ops = random_plan(lat, 1, rng.randrange(10_000))
            if not ops:
                continue
            op = ops[0]
            report = analyze(
                lat, EvolutionPlan([op]), select=("undo-unsafe-step",)
            )
            if report.by_rule("undo-unsafe-step"):
                flagged += 1
                continue
            ob = Objectbase(lat.copy())
            before = (
                ob.lattice.state_fingerprint(),
                ob.lattice.derived_fingerprint(),
            )
            try:
                result = ob.apply(op)
            except SchemaError:
                continue  # rejected: nothing to undo
            if not result.changed:
                continue
            ob.undo()
            checked += 1
            after = (
                ob.lattice.state_fingerprint(),
                ob.lattice.derived_fingerprint(),
            )
            assert after == before, f"seed {seed}: {op.describe()}"
        assert checked >= 20  # the oracle must see real round-trips
        # (random plans reuse the interned properties, so their inverses
        # are exact: the firing case is test_payload_drift_is_flagged)
        del flagged

    def test_payload_drift_is_flagged(self):
        """DB's inverse re-adds its *own* payload; when the schema's
        interned row carried a different display name, the round-trip
        silently canonicalizes it — the lossy-undo case."""
        lat = TypeLattice(LatticePolicy.tigukat())
        lat.add_type(
            "T_a",
            properties=[Property("p.sal", name="salary_display")],
        )
        report = analyze(
            lat,
            EvolutionPlan([DropPropertyEverywhere(Property("p.sal"))]),
            select=("undo-unsafe-step",),
        )
        findings = report.by_rule("undo-unsafe-step")
        assert findings
        assert "payload" in findings[0].message

    def test_exact_inverse_is_not_flagged(self):
        lat = _family()
        report = analyze(
            lat,
            EvolutionPlan([
                AddType("T_emp", ("T_person",)),
                AddEssentialProperty("T_emp", Property("emp.id")),
            ]),
            select=("undo-unsafe-step",),
        )
        assert not report.by_rule("undo-unsafe-step")
