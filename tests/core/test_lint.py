"""Tests for the schema-scope lint rules (``analyze_schema``)."""

import pytest

from repro.core import (
    LatticePolicy,
    TypeLattice,
    build_figure1_lattice,
    prop,
)
from repro.staticcheck import SCHEMA_RULE_IDS, analyze_schema


def findings_by_rule(findings):
    out = {}
    for f in findings:
        out.setdefault(f.rule_id, []).append(f)
    return out


class TestFigure1Findings:
    """The worked example deliberately contains the lintable patterns."""

    @pytest.fixture
    def findings(self):
        return findings_by_rule(analyze_schema(build_figure1_lattice()))

    def test_redundant_supertype_found(self, findings):
        # T_person is essential on T_teachingAssistant but dominated.
        hits = findings["redundant-essential-supertype"]
        assert any(
            f.subject == "T_teachingAssistant" and "T_person" in f.message
            for f in hits
        )

    def test_redundant_property_found(self, findings):
        # taxBracket is essential on T_employee yet inherited.
        hits = findings["redundant-essential-property"]
        assert any(
            f.subject == "T_employee" and "taxBracket" in f.message
            for f in hits
        )

    def test_shadowed_name_found(self, findings):
        # The two 'name' properties collide in I(T_employee).
        hits = findings["shadowed-name"]
        assert any(
            f.subject == "T_employee" and "'name'" in f.message
            for f in hits
        )

    def test_empty_interface_found(self, findings):
        # T_student defines nothing natively... but inherits person.name,
        # so it is NOT empty; the truly empty ones would be types with no
        # interface at all.  Figure 1 has none.
        assert "empty-interface" not in findings


class TestTargetedRules:
    def test_empty_interface(self):
        lat = TypeLattice()
        lat.add_type("T_bare")
        hits = analyze_schema(lat, select=("empty-interface",))
        assert [f.subject for f in hits] == ["T_bare"]

    def test_single_subtype_chain(self):
        lat = TypeLattice()
        lat.add_type("T_top", properties=[prop("t.p")])
        lat.add_type("T_mid", supertypes=["T_top"])  # adds nothing
        lat.add_type("T_bot", supertypes=["T_mid"],
                     properties=[prop("b.p")])
        hits = analyze_schema(lat, select=("single-subtype-chain",))
        assert [f.subject for f in hits] == ["T_mid"]

    def test_chain_with_native_property_not_flagged(self):
        lat = TypeLattice()
        lat.add_type("T_top", properties=[prop("t.p")])
        lat.add_type("T_mid", supertypes=["T_top"],
                     properties=[prop("m.p")])
        lat.add_type("T_bot", supertypes=["T_mid"])
        hits = analyze_schema(lat, select=("single-subtype-chain",))
        # T_mid defines m.p natively: not a pass-through; T_bot has no
        # subtypes (other than the base): not a chain either.
        assert hits == ()

    def test_implicit_root_declaration_not_flagged(self):
        # Every type has the root in Pe by policy; not a finding.
        lat = TypeLattice()
        lat.add_type("T_a")
        lat.add_type("T_b", supertypes=["T_a"])
        hits = analyze_schema(lat, select=("redundant-essential-supertype",))
        assert hits == ()

    def test_base_pe_not_flagged(self):
        # Pe(T_null) lists everything by policy; that is not redundancy.
        lat = TypeLattice()
        lat.add_type("T_a")
        lat.add_type("T_b", supertypes=["T_a"])
        hits = analyze_schema(lat, select=("redundant-essential-supertype",))
        assert all(f.subject != "T_null" for f in hits)

    def test_clean_lattice_has_no_findings(self):
        lat = TypeLattice(LatticePolicy.orion())
        lat.add_type("C_a", properties=[prop("a.p")])
        lat.add_type("C_b", supertypes=["C_a"], properties=[prop("b.p")])
        assert analyze_schema(lat) == ()

    def test_rule_registry_complete(self):
        assert set(SCHEMA_RULE_IDS) == {
            "redundant-essential-supertype",
            "redundant-essential-property",
            "shadowed-name",
            "empty-interface",
            "single-subtype-chain",
        }

    def test_finding_str(self):
        lat = TypeLattice()
        lat.add_type("T_bare")
        [f] = analyze_schema(lat, select=("empty-interface",))
        assert "empty-interface" in str(f) and "T_bare" in str(f)
