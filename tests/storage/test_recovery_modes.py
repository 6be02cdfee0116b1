"""Recovery modes, unframed-line damage, fencing, auto-checkpoint.

Damage writes and sidecar inspections go through the :class:`RealFS`
primitives, and every reopen uses a fresh instance (a restart).
"""

import json

import pytest

from repro.core import (
    AddEssentialProperty,
    AddType,
    CorruptRecordError,
    prop,
)
from repro.storage.faults import RealFS
from repro.storage.framing import (
    RECOVERY_MODES,
    DurabilityPolicy,
    write_checkpoint,
)
from repro.storage.journal import DurableLattice, JournalFile
from repro.storage.snapshot import lattice_to_dict

SCRIPT = [
    AddType("T_person", properties=(prop("person.name", "name"),)),
    AddType("T_student", ("T_person",)),
    AddEssentialProperty("T_student", prop("student.gpa", "gpa")),
]


def seed(path, fs, ops=SCRIPT):
    durable = DurableLattice(path, fs=fs)
    for op in ops:
        durable.apply(op)
    return durable


class TestRecoveryModes:
    def test_strict_open_refuses_corruption(self, tmp_path):
        path = tmp_path / "wal"
        fs = RealFS()
        seed(path, fs)
        fs.append_bytes(path, b"#W1 0 9 00000000 junkjunk\n")
        with pytest.raises(CorruptRecordError, match="salvage"):
            DurableLattice.reopen(path, fs=RealFS())  # strict default

    def test_salvage_open_quarantines_and_recovers(self, tmp_path):
        path = tmp_path / "wal"
        fs = RealFS()
        durable = seed(path, fs)
        expected = durable.lattice.state_fingerprint()
        fs.append_bytes(path, b"#W1 0 9 00000000 junkjunk\n")
        reopened = DurableLattice.reopen(
            path, recovery="salvage", fs=RealFS()
        )
        assert reopened.lattice.state_fingerprint() == expected
        report = reopened.recovery_report
        assert not report.clean
        assert report.records_dropped == 1
        sidecar = tmp_path / "wal.corrupt"
        check_fs = RealFS()
        assert check_fs.exists(sidecar)
        raw = check_fs.read_bytes(sidecar)
        assert b"junkjunk" in raw
        header = raw.splitlines()[0]
        meta = json.loads(header.removeprefix(b"#QUARANTINE "))
        assert meta["reason"] and meta["bytes"] > 0

    def test_clean_open_reports_clean(self, tmp_path):
        path = tmp_path / "wal"
        seed(path, RealFS())
        reopened = DurableLattice.reopen(path, fs=RealFS())
        assert reopened.recovery_report.clean
        assert reopened.recovery_report.records_recovered == len(SCRIPT)

    def test_salvage_after_salvage_is_stable(self, tmp_path):
        path = tmp_path / "wal"
        fs = RealFS()
        durable = seed(path, fs)
        expected = durable.lattice.state_fingerprint()
        fs.append_bytes(path, b"#W1 0 9 00000000 junkjunk\n")
        DurableLattice.reopen(path, recovery="salvage", fs=RealFS())
        again = DurableLattice.reopen(
            path, fs=RealFS()
        )  # strict now succeeds
        assert again.lattice.state_fingerprint() == expected
        assert again.recovery_report.clean


class TestUnframedLines:
    """A WAL line without the ``#W`` frame tag is damage, never a record."""

    #: An operation that applies after SCRIPT, written as bare JSON.
    BARE = json.dumps(
        AddType("T_employee", ("T_person",)).to_dict(), sort_keys=True
    ).encode("utf-8")

    def test_terminated_bare_line_is_corrupt(self, tmp_path):
        path = tmp_path / "wal"
        fs = RealFS()
        seed(path, fs)
        fs.append_bytes(path, self.BARE + b"\n")
        with pytest.raises(
            CorruptRecordError, match="repro recover --mode salvage"
        ):
            DurableLattice.reopen(path, fs=RealFS())

    def test_salvage_quarantines_terminated_bare_line(
        self, tmp_path
    ):
        path = tmp_path / "wal"
        fs = RealFS()
        durable = seed(path, fs)
        framed = fs.read_bytes(path)
        fs.append_bytes(path, self.BARE + b"\n")
        reopened = DurableLattice.reopen(
            path, recovery="salvage", fs=RealFS()
        )
        assert (
            reopened.lattice.state_fingerprint()
            == durable.lattice.state_fingerprint()
        )
        assert reopened.recovery_report.records_dropped == 1
        check_fs = RealFS()
        assert check_fs.read_bytes(path) == framed
        assert self.BARE + b"\n" in check_fs.read_bytes(
            tmp_path / "wal.corrupt"
        )

    @pytest.mark.parametrize("mode", RECOVERY_MODES)
    @pytest.mark.parametrize(
        "tail", [BARE, b"#"], ids=["bare-json", "lone-hash"]
    )
    def test_unterminated_final_line_is_torn(
        self, tmp_path, tail, mode
    ):
        path = tmp_path / "wal"
        fs = RealFS()
        durable = seed(path, fs)
        framed = fs.read_bytes(path)
        fs.append_bytes(path, tail)
        reopened = DurableLattice.reopen(
            path, recovery=mode, fs=RealFS()
        )
        assert (
            reopened.lattice.state_fingerprint()
            == durable.lattice.state_fingerprint()
        )
        assert reopened.recovery_report.torn_tail_bytes == len(tail)
        check_fs = RealFS()
        assert check_fs.read_bytes(path) == framed
        assert not check_fs.exists(tmp_path / "wal.corrupt")


class TestGenerationFencing:
    def test_crash_between_checkpoint_and_truncate_no_double_apply(
        self, tmp_path
    ):
        """The bug the fence exists for: checkpoint published, WAL not yet
        truncated.  Replaying the stale tail on top of the checkpoint
        would double-apply every operation."""
        path = tmp_path / "wal"
        fs = RealFS()
        durable = seed(path, fs)
        expected = durable.lattice.state_fingerprint()
        wal_before = fs.read_bytes(path)
        assert wal_before  # the tail is still on disk
        # Publish the checkpoint exactly as JournalFile.checkpoint does,
        # but "crash" before the WAL truncation.
        write_checkpoint(
            tmp_path / "wal.checkpoint",
            lattice_to_dict(durable.lattice),
            durable.file.generation + 1,
            fs=fs,
        )
        assert fs.read_bytes(path) == wal_before
        reopened = DurableLattice.reopen(
            path, fs=RealFS()
        )  # strict: no corruption here
        assert reopened.lattice.state_fingerprint() == expected
        assert reopened.recovery_report.records_fenced == len(SCRIPT)

    def test_appends_after_checkpoint_carry_new_generation(
        self, tmp_path
    ):
        path = tmp_path / "wal"
        durable = seed(path, RealFS())
        durable.checkpoint()
        durable.apply(AddType("T_employee", ("T_person",)))
        jf = JournalFile(path, fs=RealFS())
        assert jf.generation == 1
        assert len(jf.operations()) == 1


class TestAutoCheckpoint:
    def test_interval_policy_truncates_wal(self, tmp_path):
        path = tmp_path / "wal"
        durable = DurableLattice(
            path,
            durability=DurabilityPolicy(checkpoint_every=2),
            fs=RealFS(),
        )
        durable.apply(SCRIPT[0])
        assert len(JournalFile(path, fs=RealFS()).operations()) == 1
        durable.apply(SCRIPT[1])  # second record: auto-checkpoint fires
        assert JournalFile(path, fs=RealFS()).operations() == []
        durable.apply(SCRIPT[2])
        reopened = DurableLattice.reopen(path, fs=RealFS())
        assert (
            reopened.lattice.state_fingerprint()
            == durable.lattice.state_fingerprint()
        )

    def test_replay_budget_checkpoints_on_open(self, tmp_path):
        path = tmp_path / "wal"
        seed(path, RealFS())
        assert RealFS().read_bytes(path) != b""
        reopened = DurableLattice(
            path,
            durability=DurabilityPolicy(replay_budget_seconds=0.0),
            fs=RealFS(),
        )
        # Any replay exceeds a zero budget: the tail was folded away.
        assert RealFS().read_bytes(path) == b""
        assert RealFS().exists(tmp_path / "wal.checkpoint")
        again = DurableLattice.reopen(path, fs=RealFS())
        assert (
            again.lattice.state_fingerprint()
            == reopened.lattice.state_fingerprint()
        )
