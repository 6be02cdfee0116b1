"""Recovery modes, legacy-format upgrade reads, fencing, auto-checkpoint.

A conformance suite: every test takes the ``backend`` fixture and runs
against both storage backends (see ``conftest.py``), performing its
damage writes and sidecar inspections through the backend's own
primitives so the same scenario exercises a plain file and a sqlite
row set alike.
"""

import json

import pytest

from repro.core import (
    AddEssentialProperty,
    AddType,
    CorruptRecordError,
    prop,
)
from repro.core.lattice import TypeLattice
from repro.storage.durable_store import DurableObjectbase
from repro.storage.framing import (
    DurabilityPolicy,
    load_checkpoint,
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


class LatticeStore:
    """The schema store, as the store-generic tests drive it."""

    wal, checkpoint = "wal", "wal.checkpoint"

    @staticmethod
    def open(root, fs, durability=None):
        return DurableLattice(root / "wal", durability=durability, fs=fs)

    @staticmethod
    def seed(durable):
        durable.apply_all(SCRIPT)

    @staticmethod
    def fingerprint(durable):
        return durable.lattice.state_fingerprint()


class ObjectbaseStore:
    """The whole-objectbase store, as the store-generic tests drive it."""

    wal, checkpoint = "db/schema.wal", "db/objectbase.json"

    @staticmethod
    def open(root, fs, durability=None):
        return DurableObjectbase(root / "db", durability=durability, fs=fs)

    @staticmethod
    def seed(durable):
        durable.execute(
            "define_stored_behavior", "p.name", "name", "T_string"
        )
        durable.execute("at", "T_person", (), ("p.name",), True)

    @staticmethod
    def fingerprint(durable):
        return durable.store.lattice.state_fingerprint()


class TestRecoveryModes:
    def test_strict_open_refuses_corruption(self, backend, tmp_path):
        path = tmp_path / "wal"
        fs = backend.fresh()
        seed(path, fs)
        fs.append_bytes(path, b"#W1 0 9 00000000 junkjunk\n")
        with pytest.raises(CorruptRecordError, match="salvage"):
            DurableLattice.reopen(path, fs=backend.fresh())  # strict default

    def test_salvage_open_quarantines_and_recovers(self, backend, tmp_path):
        path = tmp_path / "wal"
        fs = backend.fresh()
        durable = seed(path, fs)
        expected = durable.lattice.state_fingerprint()
        fs.append_bytes(path, b"#W1 0 9 00000000 junkjunk\n")
        reopened = DurableLattice.reopen(
            path, recovery="salvage", fs=backend.fresh()
        )
        assert reopened.lattice.state_fingerprint() == expected
        report = reopened.recovery_report
        assert not report.clean
        assert report.records_dropped == 1
        sidecar = tmp_path / "wal.corrupt"
        check_fs = backend.fresh()
        assert check_fs.exists(sidecar)
        raw = check_fs.read_bytes(sidecar)
        assert b"junkjunk" in raw
        header = raw.splitlines()[0]
        meta = json.loads(header.removeprefix(b"#QUARANTINE "))
        assert meta["reason"] and meta["bytes"] > 0

    def test_clean_open_reports_clean(self, backend, tmp_path):
        path = tmp_path / "wal"
        seed(path, backend.fresh())
        reopened = DurableLattice.reopen(path, fs=backend.fresh())
        assert reopened.recovery_report.clean
        assert reopened.recovery_report.records_recovered == len(SCRIPT)

    def test_salvage_after_salvage_is_stable(self, backend, tmp_path):
        path = tmp_path / "wal"
        fs = backend.fresh()
        durable = seed(path, fs)
        expected = durable.lattice.state_fingerprint()
        fs.append_bytes(path, b"#W1 0 9 00000000 junkjunk\n")
        DurableLattice.reopen(path, recovery="salvage", fs=backend.fresh())
        again = DurableLattice.reopen(
            path, fs=backend.fresh()
        )  # strict now succeeds
        assert again.lattice.state_fingerprint() == expected
        assert again.recovery_report.clean

    def test_objectbase_strict_vs_salvage(self, backend, tmp_path):
        fs = backend.fresh()
        durable = DurableObjectbase(tmp_path / "db", fs=fs)
        durable.execute(
            "define_stored_behavior", "p.name", "name", "T_string"
        )
        durable.execute("at", "T_person", (), ("p.name",), True)
        expected = durable.store.lattice.state_fingerprint()
        fs.append_bytes(
            tmp_path / "db" / "schema.wal", b"#W1 0 9 00000000 junkjunk\n"
        )
        with pytest.raises(CorruptRecordError):
            DurableObjectbase.reopen(tmp_path / "db", fs=backend.fresh())
        reopened = DurableObjectbase.reopen(
            tmp_path / "db", recovery="salvage", fs=backend.fresh()
        )
        assert reopened.store.lattice.state_fingerprint() == expected
        assert backend.fresh().exists(
            tmp_path / "db" / "schema.wal.corrupt"
        )


class TestLegacyFormatUpgrade:
    def legacy_wal(self, backend, tmp_path):
        """A pre-framing journal: bare JSONL, no checkpoint envelope."""
        path = tmp_path / "wal"
        lattice = TypeLattice(None)
        lines = []
        for op in SCRIPT:
            op.apply(lattice)
            lines.append(json.dumps(op.to_dict(), sort_keys=True))
        backend.fresh().write_bytes(
            path, ("\n".join(lines) + "\n").encode("utf-8")
        )
        return path, lattice.state_fingerprint()

    def test_legacy_wal_recovers_identically(self, backend, tmp_path):
        path, expected = self.legacy_wal(backend, tmp_path)
        check_fs = backend.fresh()
        original = check_fs.read_bytes(path)
        reopened = DurableLattice.reopen(path, fs=backend.fresh())
        assert reopened.lattice.state_fingerprint() == expected
        # Reading and repairing a clean legacy journal rewrites nothing.
        assert check_fs.read_bytes(path) == original

    def test_append_after_legacy_upgrades_in_place(self, backend, tmp_path):
        path, _ = self.legacy_wal(backend, tmp_path)
        durable = DurableLattice.reopen(path, fs=backend.fresh())
        durable.apply(AddType("T_employee", ("T_person",)))
        text = backend.fresh().read_bytes(path).decode("utf-8")
        assert text.startswith("{")  # legacy prefix untouched
        assert "#W1 " in text  # new appends are framed
        reopened = DurableLattice.reopen(path, fs=backend.fresh())
        assert (
            reopened.lattice.state_fingerprint()
            == durable.lattice.state_fingerprint()
        )

    def test_legacy_checkpoint_reads_as_generation_zero(
        self, backend, tmp_path
    ):
        path = tmp_path / "wal"
        fs = backend.fresh()
        durable = seed(path, fs)
        # Rewrite the checkpoint in the pre-fencing format: bare state.
        durable.checkpoint()
        ckpt = tmp_path / "wal.checkpoint"
        state, generation = load_checkpoint(ckpt, fs=fs)
        assert generation >= 1
        fs.write_bytes(
            ckpt,
            json.dumps(lattice_to_dict(durable.lattice)).encode("utf-8"),
        )
        reopened = DurableLattice.reopen(path, fs=backend.fresh())
        assert (
            reopened.lattice.state_fingerprint()
            == durable.lattice.state_fingerprint()
        )
        assert reopened.file.generation == 0

    def test_legacy_torn_tail_tolerated(self, backend, tmp_path):
        path, expected = self.legacy_wal(backend, tmp_path)
        backend.fresh().append_bytes(
            path, b'{"code": "AT", "na'
        )  # unterminated legacy line
        reopened = DurableLattice.reopen(path, fs=backend.fresh())
        assert reopened.lattice.state_fingerprint() == expected


class TestGenerationFencing:
    def test_crash_between_checkpoint_and_truncate_no_double_apply(
        self, backend, tmp_path
    ):
        """The bug the fence exists for: checkpoint published, WAL not yet
        truncated.  Replaying the stale tail on top of the checkpoint
        would double-apply every operation."""
        path = tmp_path / "wal"
        fs = backend.fresh()
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
            path, fs=backend.fresh()
        )  # strict: no corruption here
        assert reopened.lattice.state_fingerprint() == expected
        assert reopened.recovery_report.records_fenced == len(SCRIPT)

    def test_appends_after_checkpoint_carry_new_generation(
        self, backend, tmp_path
    ):
        path = tmp_path / "wal"
        durable = seed(path, backend.fresh())
        durable.checkpoint()
        durable.apply(AddType("T_employee", ("T_person",)))
        jf = JournalFile(path, fs=backend.fresh())
        assert jf.generation == 1
        assert len(jf.operations()) == 1


class TestAutoCheckpoint:
    def test_interval_policy_truncates_wal(self, backend, tmp_path):
        path = tmp_path / "wal"
        durable = DurableLattice(
            path,
            durability=DurabilityPolicy(checkpoint_every=2),
            fs=backend.fresh(),
        )
        durable.apply(SCRIPT[0])
        assert len(JournalFile(path, fs=backend.fresh()).operations()) == 1
        durable.apply(SCRIPT[1])  # second record: auto-checkpoint fires
        assert JournalFile(path, fs=backend.fresh()).operations() == []
        durable.apply(SCRIPT[2])
        reopened = DurableLattice.reopen(path, fs=backend.fresh())
        assert (
            reopened.lattice.state_fingerprint()
            == durable.lattice.state_fingerprint()
        )

    @pytest.mark.parametrize(
        "store", [LatticeStore, ObjectbaseStore], ids=["lattice", "objectbase"]
    )
    def test_replay_budget_checkpoints_on_open(self, backend, tmp_path, store):
        store.seed(store.open(tmp_path, backend.fresh()))
        wal = tmp_path / store.wal
        assert backend.fresh().read_bytes(wal) != b""
        reopened = store.open(
            tmp_path,
            backend.fresh(),
            durability=DurabilityPolicy(replay_budget_seconds=0.0),
        )
        # Any replay exceeds a zero budget: the tail was folded away.
        assert backend.fresh().read_bytes(wal) == b""
        assert backend.fresh().exists(tmp_path / store.checkpoint)
        again = store.open(tmp_path, backend.fresh())
        assert store.fingerprint(again) == store.fingerprint(reopened)

    def test_objectbase_interval_policy(self, backend, tmp_path):
        durable = DurableObjectbase(
            tmp_path / "db",
            durability=DurabilityPolicy(checkpoint_every=2),
            fs=backend.fresh(),
        )
        durable.execute(
            "define_stored_behavior", "p.name", "name", "T_string"
        )
        durable.execute("at", "T_person", (), ("p.name",), True)
        assert backend.fresh().read_bytes(
            tmp_path / "db" / "schema.wal"
        ) == b""
        reopened = DurableObjectbase.reopen(
            tmp_path / "db", fs=backend.fresh()
        )
        assert reopened.store.class_of("T_person") is not None
