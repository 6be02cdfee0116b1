"""Crash matrix: prefix-consistent at every boundary.

The driver runs a fixed workload under :class:`FaultyFS`, crashing at
injection point 0, then 1, ... until the workload completes uncrashed.
After every simulated power failure the store is reopened over a fresh
:class:`RealFS` (the "restart") in both recovery modes and the
recovered state must be *prefix-consistent*:

* equal to the state after some prefix of the workload's operations;
* at least as long as the acknowledged prefix (every append is fsynced,
  so an operation whose ``apply`` returned is durable — no silently
  dropped valid record);
* never longer than the full workload (no double-applied tail, which is
  exactly what checkpoint generation fencing prevents).

The matrix also covers torn renames and write reordering before an
fsync barrier.
"""

import threading

import pytest

from repro.concurrent import SchemaSnapshot
from repro.core import (
    AddEssentialProperty,
    AddEssentialSupertype,
    AddType,
    prop,
)
from repro.core.errors import JournalError
from repro.core.lattice import TypeLattice
from repro.core.operations import operation_from_dict
from repro.obs.metrics import REGISTRY
from repro.replication import ReplicaStore, ReplicationSource
from repro.replication.protocol import Position
from repro.storage.faults import CrashPoint, FaultyFS, RealFS
from repro.storage.framing import frame_payload
from repro.storage.journal import DurableLattice, JournalFile
from repro.storage.snapshot import lattice_from_dict

SCRIPT = [
    AddType("T_person", properties=(prop("person.name", "name"),)),
    AddType("T_student", ("T_person",)),
    AddEssentialProperty("T_student", prop("student.gpa", "gpa")),
    AddType("T_employee", ("T_person",)),
    AddEssentialSupertype("T_student", "T_employee"),
]


def lattice_prefix_fingerprints() -> dict[str, int]:
    """state_fingerprint -> number of SCRIPT ops producing it."""
    lattice = TypeLattice(None)
    fingerprints = {lattice.state_fingerprint(): 0}
    for i, op in enumerate(SCRIPT, start=1):
        op.apply(lattice)
        fingerprints[lattice.state_fingerprint()] = i
    return fingerprints


def drive_matrix(faulty, workload, recover, prefixes, max_points=200):
    """Crash the workload at every injection point; check every recovery.

    ``faulty(crash_at) -> FaultyFS`` builds the fault-injecting view;
    ``workload(fs) -> acknowledged-op-count`` runs against a fresh
    directory each call; ``recover(mode) -> fingerprint`` reopens over
    a fresh :class:`RealFS`.  Returns the number of crash
    scenarios driven.
    """
    crash_at = 0
    while crash_at < max_points:
        fs = faulty(crash_at=crash_at)
        try:
            acknowledged = workload(fs)
            completed = not fs.crashed
        except CrashPoint:
            acknowledged = fs.acknowledged
            completed = False
        for mode in ("strict", "salvage"):
            fingerprint = recover(mode)
            assert fingerprint in prefixes, (
                f"crash at point {crash_at} ({fs.trace[-1:]}): recovered "
                f"state matches no workload prefix in mode {mode}"
            )
            recovered_ops = prefixes[fingerprint]
            assert recovered_ops >= acknowledged, (
                f"crash at point {crash_at}: {acknowledged} op(s) were "
                f"acknowledged but only {recovered_ops} recovered "
                f"(mode {mode}) — a durable record was dropped"
            )
        if completed:
            assert prefixes[recover("strict")] == max(prefixes.values())
            return crash_at + 1
        crash_at += 1
    raise AssertionError(f"workload still crashing after {max_points} points")


class TestDurableLatticeCrashMatrix:
    def test_apply_and_checkpoint_matrix(self, tmp_path):
        prefixes = lattice_prefix_fingerprints()
        scenario = {"n": 0}

        def workload(fs):
            scenario["n"] += 1
            directory = tmp_path / f"crash-{scenario['n']}"
            directory.mkdir()
            scenario["dir"] = directory
            fs.acknowledged = 0
            durable = DurableLattice(directory / "wal", fs=fs)
            for i, op in enumerate(SCRIPT):
                durable.apply(op)
                fs.acknowledged += 1
                if i == 2:
                    durable.checkpoint()
            return fs.acknowledged

        def recover(mode):
            durable = DurableLattice.reopen(
                scenario["dir"] / "wal", recovery=mode, fs=RealFS()
            )
            return durable.lattice.state_fingerprint()

        scenarios = drive_matrix(FaultyFS, workload, recover, prefixes)
        assert scenarios > 10  # the workload really has many boundaries

    def test_recovery_itself_is_crash_safe(self, tmp_path):
        """Crashing during repair-on-open must not lose the valid prefix."""
        source = tmp_path / "seed"
        source.mkdir()
        seed_fs = RealFS()
        durable = DurableLattice(source / "wal", fs=seed_fs)
        for op in SCRIPT[:3]:
            durable.apply(op)
        expected = durable.lattice.state_fingerprint()
        wal_bytes = seed_fs.read_bytes(source / "wal")

        crash_at = 0
        while crash_at < 50:
            directory = tmp_path / f"recover-{crash_at}"
            directory.mkdir()
            # Damaged image: valid prefix + torn tail.
            RealFS().write_bytes(
                directory / "wal", wal_bytes + b"#W1 0 77 to"
            )
            fs = FaultyFS(crash_at=crash_at)
            try:
                DurableLattice(directory / "wal", recovery="salvage", fs=fs)
                completed = not fs.crashed
            except CrashPoint:
                completed = False
            reopened = DurableLattice.reopen(
                directory / "wal", recovery="salvage", fs=RealFS()
            )
            assert reopened.lattice.state_fingerprint() == expected
            if completed:
                return
            crash_at += 1
        raise AssertionError("recovery never completed")


def published(snapshot: SchemaSnapshot) -> frozenset:
    """What a replica's readers see: every type's Pe and Ne."""
    return frozenset(
        (name, snapshot.pe(name), snapshot.ne(name))
        for name in snapshot.types()
    )


def ship_script(tmp_path):
    """What a primary that checkpointed after two SCRIPT ops ships:
    ``(history, checkpoint state, generation, frames)``, with the three
    later ops as frames."""
    primary = DurableLattice(tmp_path / "primary.wal")
    primary.apply_all(SCRIPT[:2])
    primary.checkpoint()
    primary.apply_all(SCRIPT[2:])
    source = ReplicationSource(tmp_path / "primary.wal")
    history = source.state()
    state, generation = source.checkpoint_state()
    frames = [frame.decode("utf-8") for frame in history.frames]
    return history, state, generation, frames


def replica_prefixes(history, state) -> dict[tuple, int]:
    """(published schema, position, tail CRC) -> the number of shipped
    units it reflects: 0 before the checkpoint landed, then 1 + k for
    the checkpoint plus the first k records."""
    empty = SchemaSnapshot.capture(TypeLattice(None))
    prefixes = {(published(empty), Position(0, 0), 0): 0}
    lattice = lattice_from_dict(state)
    for k in range(len(history.frames) + 1):
        if k:
            frame = history.frames[k - 1]
            operation_from_dict(frame_payload(frame)).apply(lattice)
        key = (
            published(SchemaSnapshot.capture(lattice)),
            Position(history.generation, k),
            ReplicationSource.prefix_crc(history, k),
        )
        prefixes[key] = 1 + k
    return prefixes


class TestReplicaStoreCrashMatrix:
    """Storage crashes on the replica's own files.

    The replica installs a shipped checkpoint, then durably appends the
    shipped frames in batches.  After a crash at any boundary a reload
    must land on a committed prefix of the primary's history, at the
    position and with the prefix CRC the primary accepts at handshake.
    """

    def test_install_and_apply_matrix(self, tmp_path):
        history, state, generation, frames = ship_script(tmp_path)
        prefixes = replica_prefixes(history, state)
        scenario = {"n": 0}

        def workload(fs):
            scenario["n"] += 1
            directory = tmp_path / f"replica-{scenario['n']}"
            directory.mkdir()
            scenario["dir"] = directory
            fs.acknowledged = 0
            replica = ReplicaStore(directory / "r.wal", fs=fs)
            replica.install_checkpoint(state, generation)
            fs.acknowledged = 1
            for start, stop in ((0, 2), (2, len(frames))):
                replica.apply_records(generation, start, frames[start:stop])
                fs.acknowledged = 1 + stop
            return fs.acknowledged

        def recover(_mode):
            replica = ReplicaStore(
                scenario["dir"] / "r.wal", fs=RealFS()
            )
            return (
                published(replica.snapshot),
                replica.position,
                replica.tail_crc,
            )

        scenarios = drive_matrix(FaultyFS, workload, recover, prefixes)
        assert scenarios > 10


class TestFsyncFailure:
    def test_append_fsync_failure_latches_degraded_mode(
        self, tmp_path
    ):
        """A permanent fsync failure exhausts retries and latches the store.

        The append is rolled back (the WAL holds exactly the acknowledged
        prefix — an unacknowledged record must not reappear on replay),
        the typed ``degraded-mode`` error is raised, and further writes
        are rejected without touching storage.
        """
        from repro.core.errors import DegradedModeError
        from repro.storage.reliability import RetryPolicy

        fs = FaultyFS(fail_fsync=True)
        durable = DurableLattice(
            tmp_path / "wal", fs=fs,
            retry=RetryPolicy(attempts=3, sleep=lambda _: None),
        )
        with pytest.raises(DegradedModeError, match="degraded"):
            durable.apply(SCRIPT[0])
        assert durable.degraded
        # The rejected write was rolled back: replay sees only the
        # acknowledged (empty) prefix, not a phantom record.
        reopened = DurableLattice.reopen(tmp_path / "wal", fs=RealFS())
        assert "T_person" not in reopened.lattice
        # Subsequent writes are rejected by the latch.
        with pytest.raises(DegradedModeError):
            durable.apply(SCRIPT[0])

    def test_transient_fsync_failures_are_absorbed(self, tmp_path):
        """Recoverable fsync blips retry to success; the write lands."""
        from repro.storage.reliability import RetryPolicy

        fs = FaultyFS(transient_fsync_failures=2)
        durable = DurableLattice(
            tmp_path / "wal", fs=fs,
            retry=RetryPolicy(attempts=3, sleep=lambda _: None),
        )
        durable.apply(SCRIPT[0])
        assert not durable.degraded
        reopened = DurableLattice.reopen(tmp_path / "wal", fs=RealFS())
        assert "T_person" in reopened.lattice

    def test_replica_fsyncs_each_batch_once(self, tmp_path):
        """A shipped batch of three frames costs one fsync, not three."""
        _, state, generation, frames = ship_script(tmp_path)
        replica = ReplicaStore(tmp_path / "r.wal", fs=RealFS())
        replica.install_checkpoint(state, generation)

        def fsyncs():
            return REGISTRY.counter_samples().get("repro_wal_fsyncs_total", 0)

        before = fsyncs()
        assert replica.apply_records(generation, 0, frames) == len(frames)
        assert fsyncs() - before == 1

    def test_replica_fsync_failure_changes_nothing(self, tmp_path):
        """A batch whose fsync fails is neither applied nor published,
        and the WAL is rolled back to the batch start."""
        _, state, generation, frames = ship_script(tmp_path)
        fs = FaultyFS()
        replica = ReplicaStore(tmp_path / "r.wal", fs=fs)
        replica.install_checkpoint(state, generation)
        before = (replica.position, replica.tail_crc, replica.snapshot)

        fs.fail_fsync = True
        with pytest.raises(JournalError, match="fsync"):
            replica.apply_records(generation, 0, frames)
        assert (replica.position, replica.tail_crc, replica.snapshot) \
            == before
        reopened = ReplicaStore(tmp_path / "r.wal", fs=RealFS())
        assert reopened.position == before[0]
        assert reopened.tail_crc == before[1]
        assert published(reopened.snapshot) == published(before[2])


class TestConcurrentWritersCrashMatrix:
    """The crash matrix under concurrent load (the tentpole guarantee).

    Four writer threads race through the single-writer lock while the
    filesystem crashes at every injection point in turn.  After each
    simulated power failure the store is reopened over a fresh
    :class:`RealFS` and every *acknowledged* write (``apply`` returned)
    must have survived — regardless of which thread issued it or how
    the arrivals interleaved — and nothing that was never applied may
    appear.
    """

    THREADS = 4
    OPS_PER_THREAD = 3

    def test_acknowledged_writes_survive(self, tmp_path):
        from repro.concurrent import ConcurrentObjectbase

        all_names = {
            f"T_w{w}_{j}"
            for w in range(self.THREADS)
            for j in range(self.OPS_PER_THREAD)
        }
        crash_at = 0
        scenarios = 0
        while crash_at < 400:
            scenarios += 1
            directory = tmp_path / f"crash-{crash_at}"
            directory.mkdir()
            fs = FaultyFS(crash_at=crash_at)
            store = ConcurrentObjectbase.open(
                directory / "wal", fs=fs,
                lock_timeout=30.0,
            )
            acknowledged: list[str] = []
            ack_lock = threading.Lock()

            def writer(w, store=store, acknowledged=acknowledged):
                for j in range(self.OPS_PER_THREAD):
                    name = f"T_w{w}_{j}"
                    try:
                        store.apply(AddType(name))
                    except CrashPoint:
                        return
                    with ack_lock:
                        acknowledged.append(name)

            threads = [
                threading.Thread(target=writer, args=(w,))
                for w in range(self.THREADS)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            completed = not fs.crashed

            for mode in ("strict", "salvage"):
                reopened = DurableLattice.reopen(
                    directory / "wal", recovery=mode, fs=RealFS()
                )
                recovered = reopened.lattice.types()
                missing = set(acknowledged) - recovered
                assert not missing, (
                    f"crash at point {crash_at}: acknowledged write(s) "
                    f"{sorted(missing)} lost (mode {mode})"
                )
                phantom = (recovered - all_names) - {"T_object", "T_null"}
                assert not phantom, (
                    f"crash at point {crash_at}: phantom type(s) "
                    f"{sorted(phantom)} recovered (mode {mode})"
                )
            if completed:
                assert len(acknowledged) == len(all_names)
                assert scenarios > 10
                return
            crash_at += 1
        raise AssertionError("workload still crashing after 400 points")


class TestTornRenameMatrix:
    """Torn checkpoint publishes: data at the destination, temp left.

    With ``torn_replace=True`` every rename gains an extra injection
    point whose partial effect is the nastiest legal crash state: the
    destination already shows the new content but the source temp file
    still exists.  Recovery must prefer the destination, stay
    prefix-consistent, and sweep the stale temp file away.
    """

    def test_checkpoint_torn_rename_matrix(self, tmp_path):
        prefixes = lattice_prefix_fingerprints()
        crash_at = 0
        while crash_at < 200:
            directory = tmp_path / f"torn-{crash_at}"
            directory.mkdir()
            fs = FaultyFS(crash_at=crash_at, torn_replace=True)
            fs.acknowledged = 0
            try:
                durable = DurableLattice(directory / "wal", fs=fs)
                for i, op in enumerate(SCRIPT):
                    durable.apply(op)
                    fs.acknowledged += 1
                    if i in (1, 3):  # two publishes: two torn points
                        durable.checkpoint()
                completed = not fs.crashed
            except CrashPoint:
                completed = False
            acknowledged = fs.acknowledged
            wal = directory / "wal"
            checkpoint = wal.with_suffix(wal.suffix + ".checkpoint")
            stale_tmp = checkpoint.with_suffix(
                checkpoint.suffix + ".tmp"
            )
            for mode in ("strict", "salvage"):
                reopened = DurableLattice.reopen(
                    wal, recovery=mode, fs=RealFS()
                )
                fingerprint = reopened.lattice.state_fingerprint()
                assert fingerprint in prefixes, (
                    f"torn crash at point {crash_at}: recovered state "
                    f"matches no prefix (mode {mode})"
                )
                assert prefixes[fingerprint] >= acknowledged, (
                    f"torn crash at point {crash_at}: acknowledged "
                    f"write lost (mode {mode})"
                )
            # Repair-on-open swept the interrupted publish's residue.
            assert not RealFS().exists(stale_tmp), (
                f"torn crash at point {crash_at}: stale checkpoint temp "
                f"file survived recovery"
            )
            if completed:
                assert crash_at > 10  # the torn points really ran
                return
            crash_at += 1
        raise AssertionError("workload still crashing after 200 points")


def reorder_workload_factory(tmp_path, scenario):
    """A workload whose every ``apply`` is its own fsync barrier.

    Each append is fsynced before ``apply`` returns, so the acknowledged
    count advances after every operation; the checkpoint in the middle
    is a barrier too (checkpoint file and truncated WAL both fsynced) —
    the discipline the reorder fault model exists to test.
    """

    def workload(fs):
        scenario["n"] += 1
        directory = tmp_path / f"reorder-{scenario['n']}"
        directory.mkdir()
        scenario["dir"] = directory
        fs.acknowledged = 0
        durable = DurableLattice(directory / "wal", fs=fs)
        for i, op in enumerate(SCRIPT):
            durable.apply(op)
            fs.acknowledged = i + 1
            if i == 2:
                durable.checkpoint()
        return fs.acknowledged

    return workload


class TestWriteReorderingMatrix:
    """Writes reordered across files before an fsync barrier.

    With ``reorder=True`` a mutation that lands while *other* files
    still have un-synced changes gains a crash point whose state is the
    classic reordered write: the current mutation persisted, every
    older un-synced file rolled back to its last barrier.  Generation
    fencing and the barrier discipline must keep recovery
    prefix-consistent anyway.
    """

    def test_reordered_writes_stay_prefix_consistent(self, tmp_path):
        prefixes = lattice_prefix_fingerprints()
        scenario = {"n": 0}
        workload = reorder_workload_factory(tmp_path, scenario)

        def recover(mode):
            durable = DurableLattice.reopen(
                scenario["dir"] / "wal", recovery=mode, fs=RealFS()
            )
            return durable.lattice.state_fingerprint()

        def faulty(crash_at):
            return FaultyFS(crash_at=crash_at, reorder=True)

        scenarios = drive_matrix(faulty, workload, recover, prefixes)
        assert scenarios > 10


class TestDiskFull:
    """ENOSPC mid-write: the process survives and must cope (unlike a
    crash, which merely restarts it)."""

    def test_enospc_appends_exhaust_retries_and_latch(
        self, tmp_path
    ):
        from repro.core.errors import DegradedModeError
        from repro.storage.reliability import RetryPolicy

        fs = FaultyFS(enospc_appends=5)
        durable = DurableLattice(
            tmp_path / "wal", fs=fs,
            retry=RetryPolicy(attempts=3, sleep=lambda _: None),
        )
        with pytest.raises(DegradedModeError):
            durable.apply(SCRIPT[0])
        assert durable.degraded
        # The half-persisted payloads were all rolled back: replay sees
        # the acknowledged (empty) prefix, not torn residue.
        reopened = DurableLattice.reopen(tmp_path / "wal", fs=RealFS())
        assert "T_person" not in reopened.lattice

    def test_transient_enospc_is_absorbed(self, tmp_path):
        from repro.storage.reliability import RetryPolicy

        fs = FaultyFS(enospc_appends=1)
        durable = DurableLattice(
            tmp_path / "wal", fs=fs,
            retry=RetryPolicy(attempts=3, sleep=lambda _: None),
        )
        durable.apply(SCRIPT[0])  # space freed up: the retry lands
        assert not durable.degraded
        reopened = DurableLattice.reopen(tmp_path / "wal", fs=RealFS())
        assert "T_person" in reopened.lattice

    def test_enospc_checkpoint_leaves_the_old_one_intact(
        self, tmp_path
    ):
        from repro.core.errors import JournalError
        from repro.storage.framing import load_checkpoint

        fs = FaultyFS()
        durable = DurableLattice(tmp_path / "wal", fs=fs)
        for op in SCRIPT[:2]:
            durable.apply(op)
        durable.checkpoint()  # the good checkpoint
        checkpoint = (tmp_path / "wal").with_suffix(".checkpoint")
        check_fs = RealFS()
        _, old_generation = load_checkpoint(checkpoint, fs=check_fs)
        durable.apply(SCRIPT[2])

        fs.enospc_writes = 1  # the disk fills before the next publish
        with pytest.raises(JournalError, match="previous .* intact"):
            durable.checkpoint()
        # The old checkpoint still loads; no partial temp file remains.
        _, generation = load_checkpoint(checkpoint, fs=check_fs)
        assert generation == old_generation
        assert not check_fs.exists(
            checkpoint.with_suffix(checkpoint.suffix + ".tmp")
        )
        # Nothing durable was lost: a reopen replays the full history.
        reopened = DurableLattice.reopen(tmp_path / "wal", fs=RealFS())
        expected = TypeLattice(None)
        for op in SCRIPT[:3]:
            op.apply(expected)
        assert reopened.lattice.state_fingerprint() == \
            expected.state_fingerprint()

    def test_enospc_quarantine_downgrades_to_best_effort(
        self, tmp_path
    ):
        """Salvage must heal the WAL even when the quarantine sidecar
        cannot be written (the disk is full — that may be *why* the WAL
        is damaged)."""
        seed_fs = RealFS()
        jf_seed = JournalFile(tmp_path / "seed.wal", fs=seed_fs)
        for op in SCRIPT[:2]:
            jf_seed.append(op)
        good = seed_fs.read_bytes(tmp_path / "seed.wal")
        wal = tmp_path / "full.wal"
        seed_fs.write_bytes(wal, good + b"#W1 0 9 00000000 junkjunk\n")

        fs = FaultyFS(enospc_appends=1)
        report = JournalFile(wal, fs=fs).repair("salvage")
        assert report.quarantine_error is not None
        assert "disk-full" in report.quarantine_error
        assert report.quarantine_path is None
        assert "quarantine sidecar failed" in report.summary()
        # The repair itself still succeeded: valid prefix preserved,
        # damage truncated, no partial sidecar left behind.
        check_fs = RealFS()
        assert check_fs.read_bytes(wal) == good
        assert not check_fs.exists(wal.with_suffix(wal.suffix + ".corrupt"))
        assert len(JournalFile(wal, fs=RealFS()).operations()) == 2


class TestSalvageCrashMatrix:
    def test_quarantine_is_crash_safe(self, tmp_path):
        """Crashing mid-quarantine never loses the valid WAL prefix."""
        seed_fs = RealFS()
        jf_seed = JournalFile(tmp_path / "seed.wal", fs=seed_fs)
        for op in SCRIPT[:2]:
            jf_seed.append(op)
        good = seed_fs.read_bytes(tmp_path / "seed.wal")
        damage = b"#W1 0 9 00000000 junkjunk\n" + b"#W1 0 55 trailing"

        crash_at = 0
        while crash_at < 50:
            wal = tmp_path / f"salvage-{crash_at}.wal"
            RealFS().write_bytes(wal, good + damage)
            fs = FaultyFS(crash_at=crash_at)
            try:
                JournalFile(wal, fs=fs).repair("salvage")
                completed = not fs.crashed
            except CrashPoint:
                completed = False
            # Restart: salvage again over a fresh RealFS.
            report = JournalFile(wal, fs=RealFS()).repair("salvage")
            ops = JournalFile(wal, fs=RealFS()).operations()
            assert len(ops) == 2, (
                f"crash at point {crash_at}: valid prefix lost "
                f"({report.summary()})"
            )
            assert RealFS().read_bytes(wal) == good
            if completed:
                return
            crash_at += 1
        raise AssertionError("salvage never completed")
