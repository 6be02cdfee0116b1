"""Tests for schema normalization (minimal essential declarations)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import LatticeSpec, random_lattice
from repro.core import (
    build_figure1_lattice,
    check_all,
    is_normalized,
    normalize,
    normalized_copy,
    prop,
    verify,
)
from repro.staticcheck import analyze_schema


class TestFigure1Normalization:
    def test_preserves_derived_lattice(self):
        original = build_figure1_lattice()
        before = original.derived_fingerprint()
        report = normalize(original)
        assert report.changed
        assert original.derived_fingerprint() == before

    def test_removes_the_insurance(self):
        lat = build_figure1_lattice()
        normalize(lat)
        # The dominated essential supertype is gone ...
        assert "T_person" not in lat.pe("T_teachingAssistant")
        # ... and so is the essential-inherited taxBracket on T_employee.
        assert prop("taxSource.taxBracket") not in lat.ne("T_employee")

    def test_changes_future_drop_behaviour(self):
        """Normalization is semantically visible under FUTURE evolution:
        the same drop sequence ends differently (the insurance is gone)."""
        declared = build_figure1_lattice()
        minimal = normalized_copy(declared)
        for lat in (declared, minimal):
            lat.drop_essential_supertype("T_teachingAssistant", "T_student")
            lat.drop_essential_supertype("T_teachingAssistant", "T_employee")
        assert declared.p("T_teachingAssistant") == {"T_person"}
        assert minimal.p("T_teachingAssistant") == {"T_object"}

    def test_report_counts(self):
        lat = build_figure1_lattice()
        report = normalize(lat)
        # Figure 1's extras: T_person on the TA, taxBracket on T_employee.
        assert report.dropped_supertype_declarations >= 1
        assert report.dropped_property_declarations >= 1

    def test_idempotent(self):
        lat = build_figure1_lattice()
        normalize(lat)
        second = normalize(lat)
        assert not second.changed

    def test_is_normalized(self):
        lat = build_figure1_lattice()
        assert not is_normalized(lat)
        normalize(lat)
        assert is_normalized(lat)

    def test_normalized_copy_leaves_original(self):
        lat = build_figure1_lattice()
        before = lat.state_fingerprint()
        clone = normalized_copy(lat)
        assert lat.state_fingerprint() == before
        assert is_normalized(clone)

    def test_axioms_hold_after(self):
        lat = build_figure1_lattice()
        normalize(lat)
        assert check_all(lat) == []
        assert verify(lat).ok

    def test_no_redundancy_lint_findings_after(self):
        lat = build_figure1_lattice()
        normalize(lat)
        findings = analyze_schema(
            lat,
            select=("redundant-essential-supertype",
                    "redundant-essential-property"),
        )
        assert findings == ()


class TestNormalizationProperties:
    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_preserves_derived_on_random_lattices(self, seed):
        lat = random_lattice(
            LatticeSpec(n_types=15, seed=seed, extra_essential_prob=0.5)
        )
        before = lat.derived_fingerprint()
        normalize(lat)
        assert lat.derived_fingerprint() == before
        assert is_normalized(lat)
        assert check_all(lat) == []

    @given(seed=st.integers(min_value=0, max_value=100))
    @settings(max_examples=15, deadline=None)
    def test_idempotent_on_random_lattices(self, seed):
        lat = random_lattice(LatticeSpec(n_types=12, seed=seed))
        normalize(lat)
        assert not normalize(lat).changed
