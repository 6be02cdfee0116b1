"""Stress tests: long randomized full-stack sessions stay invariant-clean."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import SoakSession
from repro.core import verify
from repro.storage import lattice_from_dict, lattice_to_dict


class TestSoak:
    def test_deterministic_in_seed(self):
        a = SoakSession(seed=7).run(150)
        b = SoakSession(seed=7).run(150)
        assert a.accepted == b.accepted
        assert a.rejected == b.rejected

    def test_long_session_clean(self):
        report = SoakSession(seed=3, check_every=25).run(1200)
        assert report.ok, report.invariant_failures[:3]
        assert report.total_accepted() > 800

    def test_all_operation_kinds_exercised(self):
        report = SoakSession(seed=5).run(600)
        assert set(report.accepted) >= {
            "at", "dt", "asr", "dsr", "ab", "ac", "ao", "mo", "do"
        }

    def test_rejections_happen_and_are_harmless(self):
        report = SoakSession(seed=11).run(500)
        assert sum(report.rejected.values()) > 0  # a live system sees them
        assert report.ok

    @given(seed=st.integers(min_value=0, max_value=1000))
    @settings(max_examples=10, deadline=None)
    def test_any_seed_stays_clean(self, seed):
        report = SoakSession(seed=seed, check_every=20).run(200)
        assert report.ok, report.invariant_failures[:3]

    def test_oracle_agrees_after_soak(self):
        session = SoakSession(seed=13)
        session.run(400)
        assert verify(session.store.lattice).ok

    def test_soaked_store_snapshots_cleanly(self):
        session = SoakSession(seed=17)
        session.run(300)
        back = lattice_from_dict(lattice_to_dict(session.store.lattice))
        assert (
            back.state_fingerprint()
            == session.store.lattice.state_fingerprint()
        )

    def test_summary_rows(self):
        report = SoakSession(seed=1).run(50)
        rows = dict(report.summary_rows())
        assert rows["steps"] == "50"
