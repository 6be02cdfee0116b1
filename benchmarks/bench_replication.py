#!/usr/bin/env python
"""Benchmark: replication catch-up, live ship latency, replica reads.

Three measurements over :mod:`repro.replication`:

* **catch-up** — wall time for a fresh replica to sync a primary WAL of
  increasing length (checkpoint ship + tail replay), reported as
  records/second against each lag size, with the fsyncs the replica
  issued on the way (``repro_wal_fsyncs_total`` delta: one per shipped
  batch, not one per record);
* **live ship** — per-operation latency from a committed primary write
  (plus :meth:`ReplicationServer.notify`) to the record being readable
  on the replica's published snapshot;
* **replica reads** — lock-free snapshot read throughput on a replica,
  single-threaded and with four reader threads, while the replication
  client stays connected (readers never block on replication).

Run as a script (the CI ``replication-smoke`` job uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_replication.py \
        --out BENCH_replication.json --check

``--check`` asserts correctness invariants, not timings: the replica
converges to exactly the primary's schema at every lag size, a
catch-up of n >= 100 records issues fewer than n/10 fsyncs, live
ships arrive in order, and reads during replication never fail.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import sys
import tempfile
import threading
import time
from pathlib import Path

from repro.concurrent import ConcurrentObjectbase
from repro.core import AddEssentialProperty, AddType, prop
from repro.obs.metrics import REGISTRY
from repro.replication import (
    ReplicaStore,
    ReplicationClient,
    ReplicationServer,
    ReplicationSource,
)
from repro.storage.reliability import RetryPolicy

FAST_RETRY = RetryPolicy(
    attempts=3, base_delay=0.01, max_delay=0.05, jitter=0.5
)


def script(n_ops: int) -> list:
    ops = [AddType("T_root_bench")]
    for i in range(max(1, (n_ops - 1) // 2)):
        ops.append(AddType(f"T_bench_{i}", ("T_root_bench",)))
        ops.append(
            AddEssentialProperty(
                f"T_bench_{i}", prop(f"bench.p{i}", f"p{i}")
            )
        )
    return ops[:n_ops]


def fsyncs() -> int:
    return REGISTRY.counter_samples().get("repro_wal_fsyncs_total", 0)


def wait_for(predicate, timeout: float, what: str) -> float:
    start = time.perf_counter()
    deadline = start + timeout
    while time.perf_counter() < deadline:
        if predicate():
            return time.perf_counter() - start
        time.sleep(0.001)
    raise AssertionError(f"timed out waiting for {what}")


def bench_catch_up(lags: list[int]) -> dict:
    """Fresh-replica sync time as a function of primary WAL length."""
    results = {}
    for n_ops in lags:
        with tempfile.TemporaryDirectory() as tmp:
            primary = ConcurrentObjectbase.open(Path(tmp) / "p.wal")
            for op in script(n_ops):
                primary.apply(op)
            hub = ReplicationServer(
                ReplicationSource(Path(tmp) / "p.wal"),
                poll_interval=0.005,
            ).start()
            replica = ReplicaStore(Path(tmp) / "r.wal")
            host, port = hub.address
            client = ReplicationClient(
                replica, host, port, retry=FAST_RETRY
            )
            want = primary.snapshot.types()
            fsyncs_before = fsyncs()
            start = time.perf_counter()
            client.start()
            try:
                # Catch-up means *visible*: durable position reaches the
                # primary's AND the published snapshot reflects it.
                wait_for(
                    lambda: client.lag_records == 0
                    and replica.types() == want,
                    timeout=120.0, what=f"catch-up of {n_ops} records",
                )
                elapsed = time.perf_counter() - start
                synced = fsyncs() - fsyncs_before
                converged = replica.types() == want
            finally:
                client.stop()
                hub.stop()
            results[str(n_ops)] = {
                "n_ops": n_ops,
                "elapsed_ms": elapsed * 1e3,
                "records_per_sec": n_ops / elapsed if elapsed else 0.0,
                "fsyncs": synced,
                "converged": converged,
            }
    return results


def bench_live_ship(n_ops: int) -> dict:
    """Committed-write-to-replica-visible latency, one op at a time."""
    with tempfile.TemporaryDirectory() as tmp:
        primary = ConcurrentObjectbase.open(Path(tmp) / "p.wal")
        hub = ReplicationServer(
            ReplicationSource(Path(tmp) / "p.wal"),
            poll_interval=0.005, heartbeat_interval=0.5,
        ).start()
        replica = ReplicaStore(Path(tmp) / "r.wal")
        host, port = hub.address
        client = ReplicationClient(replica, host, port, retry=FAST_RETRY)
        client.start()
        latencies = []
        in_order = True
        try:
            wait_for(lambda: client.synced, timeout=30.0, what="handshake")
            for i in range(n_ops):
                name = f"T_live_{i}"
                primary.apply(AddType(name))
                start = time.perf_counter()
                hub.notify()
                wait_for(
                    lambda: name in replica.types(),
                    timeout=30.0, what=f"ship of {name}",
                )
                latencies.append(time.perf_counter() - start)
                # Order: everything shipped before must already be there.
                in_order = in_order and all(
                    f"T_live_{j}" in replica.types() for j in range(i)
                )
        finally:
            client.stop()
            hub.stop()
        return {
            "n_ops": n_ops,
            "median_ms": statistics.median(latencies) * 1e3,
            "p95_ms": sorted(latencies)[int(len(latencies) * 0.95)] * 1e3,
            "in_order": in_order,
        }


def bench_replica_reads(n_types: int, seconds: float) -> dict:
    """Snapshot read throughput on a live replica, 1 vs 4 threads."""
    with tempfile.TemporaryDirectory() as tmp:
        primary = ConcurrentObjectbase.open(Path(tmp) / "p.wal")
        for op in script(n_types):
            primary.apply(op)
        hub = ReplicationServer(
            ReplicationSource(Path(tmp) / "p.wal"), poll_interval=0.005,
        ).start()
        replica = ReplicaStore(Path(tmp) / "r.wal")
        host, port = hub.address
        client = ReplicationClient(replica, host, port, retry=FAST_RETRY)
        client.start()
        want = primary.snapshot.types()
        try:
            wait_for(
                lambda: client.lag_records == 0 and replica.types() == want,
                timeout=120.0, what="replica sync",
            )
            names = sorted(
                t for t in replica.types() if t.startswith("T_bench")
            )

            def read_loop(counter: list, errors: list) -> None:
                deadline = time.perf_counter() + seconds
                i = 0
                while time.perf_counter() < deadline:
                    try:
                        replica.card(names[i % len(names)])
                        replica.types()
                    except Exception as exc:  # noqa: BLE001
                        errors.append(repr(exc))
                        return
                    counter[0] += 2
                    i += 1

            throughput = {}
            all_errors: list = []
            for n_threads in (1, 4):
                counters = [[0] for _ in range(n_threads)]
                threads = [
                    threading.Thread(
                        target=read_loop, args=(counters[i], all_errors)
                    )
                    for i in range(n_threads)
                ]
                start = time.perf_counter()
                for t in threads:
                    t.start()
                for t in threads:
                    t.join()
                elapsed = time.perf_counter() - start
                total = sum(c[0] for c in counters)
                throughput[f"threads_{n_threads}"] = {
                    "reads": total,
                    "reads_per_sec": total / elapsed,
                }
        finally:
            client.stop()
            hub.stop()
        return {
            "n_types": len(names),
            "read_errors": all_errors,
            **throughput,
        }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="reduced sizes for CI smoke",
    )
    parser.add_argument(
        "--out", default="BENCH_replication.json",
        help="where to write the JSON artifact",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when a correctness invariant fails",
    )
    args = parser.parse_args(argv)

    if args.quick:
        lags, live_ops, read_types, read_seconds = [50, 150], 10, 50, 0.5
    else:
        lags, live_ops, read_types, read_seconds = [100, 500, 1000], 30, 200, 2.0

    catch_up = bench_catch_up(lags)
    live = bench_live_ship(live_ops)
    reads = bench_replica_reads(read_types, read_seconds)

    result = {
        "benchmark": "replication: catch-up, live ship, replica reads",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "catch_up": catch_up,
        "live_ship": live,
        "replica_reads": reads,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")

    print("fresh-replica catch-up:")
    for key, r in catch_up.items():
        print(f"  {r['n_ops']:6d} records  {r['elapsed_ms']:9.1f} ms  "
              f"({r['records_per_sec']:8.0f} rec/s, "
              f"{r['fsyncs']} fsync(s))")
    print(f"live ship latency over {live['n_ops']} ops: "
          f"median {live['median_ms']:.2f} ms, p95 {live['p95_ms']:.2f} ms")
    for n_threads in (1, 4):
        r = reads[f"threads_{n_threads}"]
        print(f"replica reads ({n_threads} thread(s)): "
              f"{r['reads_per_sec']:10.0f} reads/s")
    print(f"artifact: {args.out}")

    if args.check:
        failures = []
        for key, r in catch_up.items():
            if not r["converged"]:
                failures.append(
                    f"replica diverged after catching up {key} records"
                )
            if r["n_ops"] >= 100 and r["fsyncs"] * 10 >= r["n_ops"]:
                failures.append(
                    f"catch-up of {key} records issued {r['fsyncs']} "
                    f"fsync(s); a replica fsyncs once per shipped batch"
                )
        if not live["in_order"]:
            failures.append("live ships arrived out of order")
        if reads["read_errors"]:
            failures.append(
                f"replica reads failed during replication: "
                f"{reads['read_errors'][:3]}"
            )
        single = reads["threads_1"]["reads_per_sec"]
        if single <= 0:
            failures.append("no replica reads completed")
        if failures:
            for f in failures:
                print(f"FAIL: {f}", file=sys.stderr)
            return 1
        print("OK: catch-up exact at every lag, one fsync per batch, "
              "ships in order, reads lock-free")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
