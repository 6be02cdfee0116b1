"""End-to-end WAL shipping: catch-up, live tailing, resume, fencing."""

from __future__ import annotations

import time

import pytest

from repro.concurrent import ConcurrentObjectbase
from repro.core.operations import AddType
from repro.replication import (
    FileLease,
    ReplicaStore,
    ReplicationClient,
    ReplicationServer,
    ReplicationSource,
)
from repro.storage.reliability import RetryPolicy

FAST_RETRY = RetryPolicy(
    attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.5
)


def wait_until(predicate, timeout=10.0, interval=0.02, message="condition"):
    deadline = time.time() + timeout
    while time.time() < deadline:
        if predicate():
            return
        time.sleep(interval)
    raise AssertionError(f"timed out waiting for {message}")


@pytest.fixture
def primary(tmp_path):
    store = ConcurrentObjectbase.open(tmp_path / "p.wal")
    hub = ReplicationServer(
        ReplicationSource(tmp_path / "p.wal"),
        poll_interval=0.01,
        heartbeat_interval=0.05,
    ).start()
    yield store, hub
    hub.stop()


def make_replica(tmp_path, hub, name="r.wal", **kwargs):
    store = ReplicaStore(tmp_path / name)
    host, port = hub.address
    kwargs.setdefault("retry", FAST_RETRY)
    client = ReplicationClient(store, host, port, **kwargs)
    client.start()
    return store, client


class TestShipping:
    def test_catch_up_from_scratch(self, primary, tmp_path):
        store, hub = primary
        for i in range(4):
            store.apply(AddType(f"T_a{i}"))
        replica, client = make_replica(tmp_path, hub)
        try:
            wait_until(
                lambda: client.lag_records == 0 and client.synced,
                message="replica catch-up",
            )
            assert {f"T_a{i}" for i in range(4)} <= replica.types()
            assert replica.position == hub.source.state().position
        finally:
            client.stop()

    def test_live_tailing(self, primary, tmp_path):
        store, hub = primary
        replica, client = make_replica(tmp_path, hub)
        try:
            wait_until(lambda: client.synced, message="handshake")
            store.apply(AddType("T_live"))
            hub.notify()
            wait_until(
                lambda: "T_live" in replica.types(), message="live ship"
            )
        finally:
            client.stop()

    def test_restart_resumes_from_durable_position(self, primary, tmp_path):
        store, hub = primary
        store.apply(AddType("T_one"))
        replica, client = make_replica(tmp_path, hub)
        try:
            wait_until(lambda: "T_one" in replica.types(), message="sync")
        finally:
            client.stop()

        # New writes land while the replica is down.
        store.apply(AddType("T_two"))
        # Restart: a fresh store over the same files resumes (the
        # handshake CRC verifies the durable prefix) and catches up.
        replica2 = ReplicaStore(tmp_path / "r.wal")
        assert "T_one" in replica2.types()  # durable across restart
        host, port = hub.address
        client2 = ReplicationClient(
            replica2, host, port, retry=FAST_RETRY
        )
        client2.start()
        try:
            wait_until(
                lambda: "T_two" in replica2.types(), message="resume"
            )
            # Resumed, not resynced: no checkpoint was re-installed.
        finally:
            client2.stop()

    def test_primary_checkpoint_reships(self, primary, tmp_path):
        store, hub = primary
        store.apply(AddType("T_before"))
        replica, client = make_replica(tmp_path, hub)
        try:
            wait_until(lambda: "T_before" in replica.types(), message="sync")
            store.checkpoint()  # truncates the primary WAL
            store.apply(AddType("T_after"))
            hub.notify()
            wait_until(
                lambda: "T_after" in replica.types(),
                message="post-checkpoint catch-up",
            )
            assert "T_before" in replica.types()
            assert replica.position.generation > 0
        finally:
            client.stop()

    def test_replica_survives_primary_death(self, primary, tmp_path):
        store, hub = primary
        store.apply(AddType("T_persist"))
        replica, client = make_replica(
            tmp_path, hub, max_staleness=30.0
        )
        try:
            wait_until(lambda: "T_persist" in replica.types(),
                       message="sync")
            hub.stop()  # the primary dies mid-stream
            time.sleep(0.1)
            # Stale-read mode: the last snapshot keeps serving.
            assert "T_persist" in replica.types()
            assert not client.stale  # inside the bound
            assert client.staleness() < 30.0
        finally:
            client.stop()


class TestFencing:
    def test_fenced_primary_refuses_handshake(self, tmp_path):
        store = ConcurrentObjectbase.open(tmp_path / "p.wal")
        store.apply(AddType("T_secret"))
        clock = [1000.0]
        lease = FileLease(
            tmp_path / "p.wal.lease", owner="old", ttl=5.0,
            clock=lambda: clock[0],
        )
        lease.acquire()
        hub = ReplicationServer(
            ReplicationSource(tmp_path / "p.wal"), lease=lease,
            poll_interval=0.01,
        ).start()
        try:
            # The lease is lost (paused past expiry, superseded).
            clock[0] += 5.1
            new = FileLease(
                tmp_path / "p.wal.lease", owner="new", ttl=5.0,
                clock=lambda: clock[0],
            )
            new.acquire()
            replica, client = make_replica(tmp_path, hub)
            try:
                # The fenced ex-primary must never complete a handshake:
                # the replica stays empty and unsynced.
                time.sleep(0.5)
                assert not client.synced
                assert "T_secret" not in replica.types()
            finally:
                client.stop()
        finally:
            hub.stop()

    def test_replica_refuses_lower_epoch(self, tmp_path):
        """A replica that has synced from epoch N never follows N-1."""
        store = ConcurrentObjectbase.open(tmp_path / "p.wal")
        store.apply(AddType("T_stale"))
        lease = FileLease(tmp_path / "p.wal.lease", owner="a", ttl=60.0)
        lease.acquire()  # epoch 1
        hub = ReplicationServer(
            ReplicationSource(tmp_path / "p.wal"), lease=lease,
            poll_interval=0.01,
        ).start()
        try:
            replica = ReplicaStore(tmp_path / "r.wal")
            host, port = hub.address
            client = ReplicationClient(
                replica, host, port, retry=FAST_RETRY
            )
            client.seen_epoch = 7  # synced from a newer primary before
            client.start()
            try:
                time.sleep(0.5)
                assert not client.synced
                assert "T_stale" not in replica.types()
            finally:
                client.stop()
        finally:
            hub.stop()

    def test_writes_propagate_under_an_active_lease(self, tmp_path):
        store = ConcurrentObjectbase.open(tmp_path / "p.wal")
        lease = FileLease(tmp_path / "p.wal.lease", owner="a", ttl=60.0)
        lease.acquire()
        store.set_write_fence(lease.check)
        hub = ReplicationServer(
            ReplicationSource(tmp_path / "p.wal"), lease=lease,
            poll_interval=0.01, heartbeat_interval=0.05,
        ).start()
        try:
            replica, client = make_replica(tmp_path, hub)
            try:
                store.apply(AddType("T_fenced_ok"))
                hub.notify()
                wait_until(
                    lambda: "T_fenced_ok" in replica.types(),
                    message="ship under lease",
                )
                assert client.seen_epoch == 1
            finally:
                client.stop()
        finally:
            hub.stop()
