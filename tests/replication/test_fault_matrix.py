"""The replication fault matrix: every mode at every protocol point.

Mirrors the storage crash matrix one layer up.  For each fault mode
(drop, truncate, bitflip, reorder, stall) and each numbered message
boundary, the primary's *first* connection to the replica is injured at
exactly that point; subsequent connections are healthy.  The replica
must (a) never publish a snapshot that is not a prefix of the primary's
committed history — sampled continuously while it recovers — and (b)
converge to the full history anyway, by reconnecting, quarantining, or
timing out as the mode demands.
"""

from __future__ import annotations

import time

import pytest

from repro.concurrent import ConcurrentObjectbase
from repro.core.operations import AddType
from repro.replication import (
    Channel,
    FaultyChannel,
    ReplicaStore,
    ReplicationClient,
    ReplicationServer,
    ReplicationSource,
)
from repro.replication.channel import FAULT_MODES
from repro.storage.reliability import RetryPolicy


#: The workload: types applied in order on the primary.  A replica
#: snapshot is a committed prefix iff its applied set is {T_f0..T_fk}.
NAMES = [f"T_f{i}" for i in range(5)]

#: Message boundaries to injure.  The first connection's sends are
#: welcome(0), checkpoint(1), records(2), then heartbeats — so this
#: range covers every distinct protocol point plus one heartbeat.
POINTS = range(4)


class FirstConnectionFaulty:
    """Channel factory: injure connection #1, heal every later one."""

    def __init__(self, mode: str, fault_at: int) -> None:
        self.mode = mode
        self.fault_at = fault_at
        self.connections = 0
        self.fired: list[str] = []

    def __call__(self, sock) -> Channel:
        self.connections += 1
        if self.connections > 1:
            return Channel(sock)
        return FaultyChannel(
            sock, fault_at=self.fault_at, mode=self.mode,
            on_fault=self.fired.append,
        )


def assert_prefix(types: frozenset, base: frozenset) -> int:
    """The committed-prefix invariant; returns the prefix length."""
    applied = sorted(types - base)
    assert applied == NAMES[: len(applied)], (
        f"replica published {applied}: not a prefix of {NAMES}"
    )
    return len(applied)


@pytest.mark.parametrize("mode", FAULT_MODES)
def test_fault_matrix(mode, tmp_path):
    primary = ConcurrentObjectbase.open(tmp_path / "p.wal")
    base = primary.types()
    for name in NAMES:
        primary.apply(AddType(name))

    for fault_at in POINTS:
        factory = FirstConnectionFaulty(mode, fault_at)
        hub = ReplicationServer(
            ReplicationSource(tmp_path / "p.wal"),
            poll_interval=0.01,
            heartbeat_interval=0.03,
            channel_factory=factory,
            send_timeout=2.0,
        ).start()
        replica = ReplicaStore(tmp_path / f"r-{mode}-{fault_at}.wal")
        host, port = hub.address
        client = ReplicationClient(
            replica, host, port,
            retry=RetryPolicy(
                attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.5
            ),
            # Short so a stalled stream is declared dead quickly.
            heartbeat_timeout=0.4,
            connect_timeout=1.0,
        )
        client.start()
        try:
            deadline = time.time() + 15.0
            while time.time() < deadline:
                # The invariant holds at every instant, not just at the
                # end: sample the published snapshot while the fault
                # plays out.  Late points land on heartbeats after
                # catch-up, so also wait for the fault to actually fire
                # (and the stream to survive it).
                done = assert_prefix(replica.types(), base) == len(NAMES)
                if done and client.lag_records == 0 and factory.fired:
                    break
                time.sleep(0.01)
            else:
                raise AssertionError(
                    f"{mode}@{fault_at}: replica never converged "
                    f"(types={sorted(replica.types() - base)}, "
                    f"last_error={client.last_error!r})"
                )
            # Durable too: a restart after convergence reloads the same
            # committed prefix from the replica's own WAL.
            reloaded = ReplicaStore(tmp_path / f"r-{mode}-{fault_at}.wal")
            assert_prefix(reloaded.types(), base)
            assert reloaded.types() == replica.types()
        finally:
            client.stop()
            hub.stop()
        assert factory.fired, (
            f"{mode}@{fault_at}: the fault never fired — the matrix "
            f"is not covering this point"
        )
        assert factory.fired == [f"{mode}@{fault_at}"]
