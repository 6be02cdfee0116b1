"""Tests for the write-ahead journal and crash recovery."""

import pytest

from repro.core import (
    AddEssentialProperty,
    AddEssentialSupertype,
    AddType,
    DropType,
    JournalError,
    prop,
)
from repro.storage import journal
from repro.storage.framing import DurabilityPolicy, encode_frame
from repro.storage.journal import DurableLattice, JournalFile
from repro.storage.snapshot import lattice_to_dict

SCRIPT = [
    AddType("T_person", properties=(prop("person.name", "name"),)),
    AddType("T_student", ("T_person",)),
    AddEssentialProperty("T_student", prop("student.gpa", "gpa")),
    AddType("T_employee", ("T_person",)),
    AddEssentialSupertype("T_student", "T_employee"),
]


class TestJournalFile:
    def test_append_and_read_back(self, tmp_path):
        jf = JournalFile(tmp_path / "wal.jsonl")
        for op in SCRIPT:
            jf.append(op)
        ops = jf.operations()
        assert [o.to_dict() for o in ops] == [o.to_dict() for o in SCRIPT]

    def test_missing_file_is_empty(self, tmp_path):
        assert JournalFile(tmp_path / "none.jsonl").operations() == []

    def test_torn_tail_tolerated(self, tmp_path):
        jf = JournalFile(tmp_path / "wal.jsonl")
        for op in SCRIPT[:2]:
            jf.append(op)
        with jf.path.open("a") as fh:
            fh.write('{"code": "AT", "nam')  # crash mid-write
        assert len(jf.operations()) == 2

    def test_interior_corruption_rejected(self, tmp_path):
        jf = JournalFile(tmp_path / "wal.jsonl")
        jf.append(SCRIPT[0])
        with jf.path.open("a") as fh:
            fh.write("GARBAGE\n")
        jf.append(SCRIPT[1])
        with pytest.raises(JournalError):
            jf.operations()

    def test_semantically_invalid_final_record_raises(self, tmp_path):
        # Regression: a final record that verifies but decodes to
        # no valid operation used to be silently discarded as if it were
        # a torn write.  It is schema corruption and must raise.
        jf = JournalFile(tmp_path / "wal.jsonl")
        jf.append(SCRIPT[0])
        bogus = encode_frame('{"code": "NOPE", "name": "T_x"}', 0)
        with jf.path.open("ab") as fh:
            fh.write(bogus[:-1])  # checksummed, even unterminated
        with pytest.raises(JournalError):
            jf.operations()

    def test_append_after_torn_tail_heals_first(self, tmp_path):
        # Appending onto crash residue would corrupt both records; the
        # journal repairs its tail before the first append.
        jf = JournalFile(tmp_path / "wal.jsonl")
        jf.append(SCRIPT[0])
        with jf.path.open("a") as fh:
            fh.write('{"code": "AT", "nam')
        jf2 = JournalFile(tmp_path / "wal.jsonl")
        jf2.append(SCRIPT[1])
        ops = jf2.operations()
        assert [o.to_dict() for o in ops] == [
            o.to_dict() for o in SCRIPT[:2]
        ]

    def test_recover_replays(self, tmp_path):
        jf = JournalFile(tmp_path / "wal.jsonl")
        for op in SCRIPT:
            jf.append(op)
        lat = jf.recover()
        assert "T_student" in lat
        assert "T_employee" in lat.pe("T_student")

    def test_checkpoint_truncates_log(self, tmp_path):
        jf = JournalFile(tmp_path / "wal.jsonl")
        lat = jf.recover()
        for op in SCRIPT:
            op.apply(lat)
            jf.append(op)
        jf.checkpoint(lattice_to_dict(lat))
        assert jf.operations() == []
        recovered = jf.recover()
        assert recovered.state_fingerprint() == lat.state_fingerprint()

    def test_checkpoint_plus_tail(self, tmp_path):
        jf = JournalFile(tmp_path / "wal.jsonl")
        lat = jf.recover()
        for op in SCRIPT[:3]:
            op.apply(lat)
            jf.append(op)
        jf.checkpoint(lattice_to_dict(lat))
        for op in SCRIPT[3:]:
            op.apply(lat)
            jf.append(op)
        recovered = jf.recover()
        assert recovered.state_fingerprint() == lat.state_fingerprint()


class TestDurableLattice:
    def test_write_ahead_then_reopen(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        durable = DurableLattice(path)
        for op in SCRIPT:
            durable.apply(op)
        reopened = DurableLattice.reopen(path)
        assert (
            reopened.lattice.state_fingerprint()
            == durable.lattice.state_fingerprint()
        )

    def test_rejected_op_not_logged(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        durable = DurableLattice(path)
        durable.apply(SCRIPT[0])
        with pytest.raises(Exception):
            durable.apply(AddType("T_person"))  # duplicate: rejected
        # Recovery must not trip over a logged-but-invalid record.
        reopened = DurableLattice.reopen(path)
        assert (
            reopened.lattice.state_fingerprint()
            == durable.lattice.state_fingerprint()
        )

    def test_checkpoint_then_more_ops(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        durable = DurableLattice(path)
        for op in SCRIPT[:2]:
            durable.apply(op)
        durable.checkpoint()
        durable.apply(SCRIPT[2])
        reopened = DurableLattice.reopen(path)
        assert (
            reopened.lattice.state_fingerprint()
            == durable.lattice.state_fingerprint()
        )

    def test_drop_type_round_trip(self, tmp_path):
        path = tmp_path / "wal.jsonl"
        durable = DurableLattice(path)
        for op in SCRIPT:
            durable.apply(op)
        durable.apply(DropType("T_employee"))
        reopened = DurableLattice.reopen(path)
        assert "T_employee" not in reopened.lattice
        assert (
            reopened.lattice.state_fingerprint()
            == durable.lattice.state_fingerprint()
        )

    @pytest.mark.parametrize(
        "every, serializations", [(None, 0), (10, 5)],
        ids=["default-policy", "checkpoint-every-10"],
    )
    def test_lattice_serialized_only_when_checkpointing(
        self, tmp_path, monkeypatch, every, serializations
    ):
        """A write pays for ``lattice_to_dict`` only when the policy
        actually writes a checkpoint."""
        calls = []

        def counting(lattice):
            calls.append(lattice)
            return lattice_to_dict(lattice)

        monkeypatch.setattr(journal, "lattice_to_dict", counting)
        durable = DurableLattice(
            tmp_path / "wal.jsonl",
            durability=DurabilityPolicy(checkpoint_every=every),
        )
        for i in range(50):
            durable.apply(AddType(f"T_{i}"))
        assert len(calls) == serializations
