"""Opening a store reads each of its durable files exactly once.

Recovery heals, loads the checkpoint, and reads and fences the log in
one pass (:meth:`repro.storage.journal.JournalFile.replay`); a second
read of the same bytes is pure open-time cost.  A counting
:class:`RealFS` pins the count for the schema store and the
replica.
"""

from collections import Counter
from pathlib import Path

from repro.core import AddEssentialProperty, AddType, prop
from repro.replication import ReplicaStore
from repro.storage import RealFS
from repro.storage.journal import DurableLattice

SCRIPT = [
    AddType("T_person", properties=(prop("person.name", "name"),)),
    AddType("T_student", ("T_person",)),
    AddEssentialProperty("T_student", prop("student.gpa", "gpa")),
]


class CountingFS(RealFS):
    """A :class:`RealFS` that counts ``read_bytes`` calls per file name."""

    def __init__(self) -> None:
        self.reads: Counter[str] = Counter()

    def read_bytes(self, path: Path) -> bytes:
        self.reads[Path(path).name] += 1
        return super().read_bytes(path)


def seed_checkpointed(path: Path) -> DurableLattice:
    """A WAL with a checkpoint *and* a live tail behind it."""
    durable = DurableLattice(path)
    durable.apply_all(SCRIPT[:2])
    durable.checkpoint()
    durable.apply(SCRIPT[2])
    return durable


def test_reopening_a_durable_lattice_reads_each_file_once(tmp_path):
    path = tmp_path / "wal"
    durable = seed_checkpointed(path)
    fs = CountingFS()
    reopened = DurableLattice.reopen(path, fs=fs)
    assert (
        reopened.lattice.state_fingerprint()
        == durable.lattice.state_fingerprint()
    )
    assert fs.reads == Counter({"wal.checkpoint": 1, "wal": 1})


def test_opening_a_replica_reads_each_file_once(tmp_path):
    # A replica's files share the primary's layout, so a primary-written
    # WAL plus checkpoint is a valid replica image.
    path = tmp_path / "r.wal"
    durable = seed_checkpointed(path)
    fs = CountingFS()
    replica = ReplicaStore(path, fs=fs)
    assert replica.types() == durable.lattice.types()
    assert replica.position.index == 1
    assert fs.reads == Counter({"r.wal.checkpoint": 1, "r.wal": 1})
