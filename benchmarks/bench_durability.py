#!/usr/bin/env python
"""Benchmark: durable WAL append throughput and recovery cost.

Three measurements over the framed write-ahead journal
(:mod:`repro.storage.framing`):

* **append throughput** — operations appended per second, each fsynced
  before ``apply`` returns, with counter provenance proving every
  append issued exactly one fsync;
* **recovery** — wall time to reopen a WAL with a long tail, and again
  after a checkpoint folded the tail away (the replay-budget payoff);
* **salvage scan** — wall time for a salvage pass over a damaged log
  (the `repro recover` path), which is a full CRC verification sweep.

Run as a script (the CI smoke job uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_durability.py \
        --out BENCH_durability.json --check

``--check`` asserts correctness invariants, not precise timings (shared
runners are too noisy for tight throughput gates): one fsync per
append, recovery is state-identical to the writer, salvage keeps
the valid prefix, and appends clear a deliberately modest absolute
throughput floor that only a pathological regression (e.g. an
accidental O(n) re-read per append) would trip.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import tempfile
import time
from pathlib import Path

from repro.core import AddEssentialProperty, AddType, prop
from repro.obs.metrics import REGISTRY
from repro.storage.journal import DurableLattice, JournalFile

# Any slower than this, even paying one fsync per append, and something
# is structurally wrong with the WAL path, not merely a noisy runner.
MIN_OPS_PER_SEC = 100.0


def script(n_ops: int) -> list:
    """A replayable plan of ~n_ops operations (types + property flips)."""
    ops = [AddType("T_root_bench")]
    for i in range(max(1, (n_ops - 1) // 2)):
        ops.append(AddType(f"T_bench_{i}", ("T_root_bench",)))
        ops.append(
            AddEssentialProperty(
                f"T_bench_{i}", prop(f"bench.p{i}", f"p{i}")
            )
        )
    return ops[:n_ops]


def bench_append(n_ops: int) -> dict:
    """Ops/second appended to the WAL, one fsync per append."""
    ops = script(n_ops)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.wal"
        durable = DurableLattice(path)
        REGISTRY.reset()
        start = time.perf_counter()
        for op in ops:
            durable.apply(op)
        elapsed = time.perf_counter() - start
        counters = REGISTRY.counter_samples()
        return {
            "n_ops": len(ops),
            "elapsed_ms": elapsed * 1e3,
            "ops_per_sec": len(ops) / elapsed,
            "fsyncs": counters.get("repro_wal_fsyncs_total", 0),
            "wal_bytes": path.stat().st_size,
        }


def bench_recovery(n_ops: int, repeats: int) -> dict:
    """Reopen cost with a long WAL tail, then after a checkpoint."""
    ops = script(n_ops)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.wal"
        writer = DurableLattice(path)
        for op in ops:
            writer.apply(op)
        expected = writer.lattice.state_fingerprint()

        def reopen() -> str:
            durable = DurableLattice.reopen(path)
            durable.lattice.derivation
            return durable.lattice.state_fingerprint()

        tail_times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fingerprint = reopen()
            tail_times.append(time.perf_counter() - start)
        assert fingerprint == expected, "recovery diverged from writer"

        writer.checkpoint()
        ckpt_times = []
        for _ in range(repeats):
            start = time.perf_counter()
            fingerprint = reopen()
            ckpt_times.append(time.perf_counter() - start)
        assert fingerprint == expected, "post-checkpoint recovery diverged"

        return {
            "n_ops": len(ops),
            "replay_tail_ms": min(tail_times) * 1e3,
            "replay_checkpointed_ms": min(ckpt_times) * 1e3,
            "checkpoint_speedup": min(tail_times) / min(ckpt_times),
            "recovered_fingerprint_matches": True,
        }


def bench_salvage(n_ops: int) -> dict:
    """A salvage pass over a log with a corrupt suffix (CRC sweep)."""
    ops = script(n_ops)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "bench.wal"
        writer = DurableLattice(path)
        for op in ops:
            writer.apply(op)
        n_valid = len(JournalFile(path).operations())
        with open(path, "ab") as fh:
            fh.write(b"#W1 0 9 00000000 junkjunk\n" + b"#W1 0 44 torn-tail")
        start = time.perf_counter()
        report = JournalFile(path).repair("salvage")
        elapsed = time.perf_counter() - start
        survivors = len(JournalFile(path).operations())
        return {
            "n_ops": n_valid,
            "salvage_ms": elapsed * 1e3,
            "records_recovered": report.records_recovered,
            "bytes_quarantined": report.bytes_quarantined,
            "valid_prefix_kept": survivors == n_valid,
        }


def check(measured: dict) -> list[str]:
    """Correctness invariants over the measured results."""
    append = measured["append"]
    recovery = measured["recovery"]
    salvage = measured["salvage"]
    failures = []
    if append["fsyncs"] != append["n_ops"]:
        failures.append(
            f"{append['fsyncs']} fsync(s) for {append['n_ops']} appends; "
            f"expected one per append"
        )
    if append["ops_per_sec"] < MIN_OPS_PER_SEC:
        failures.append(
            f"append throughput fell to {append['ops_per_sec']:.0f} ops/s "
            f"(floor {MIN_OPS_PER_SEC:.0f})"
        )
    if not recovery["recovered_fingerprint_matches"]:
        failures.append("recovery diverged from the writer's state")
    if not salvage["valid_prefix_kept"]:
        failures.append("salvage lost part of the valid prefix")
    if salvage["records_recovered"] != salvage["n_ops"]:
        failures.append(
            f"salvage recovered {salvage['records_recovered']} "
            f"of {salvage['n_ops']} valid records"
        )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="reduced sizes for CI smoke",
    )
    parser.add_argument(
        "--out", default="BENCH_durability.json",
        help="where to write the JSON artifact",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when a correctness invariant fails",
    )
    args = parser.parse_args(argv)

    if args.quick:
        n_append, n_recover, repeats = 100, 100, 2
    else:
        n_append, n_recover, repeats = 500, 500, 3

    measured = {
        "append": bench_append(n_append),
        "recovery": bench_recovery(n_recover, repeats),
        "salvage": bench_salvage(n_recover),
    }

    result = {
        "benchmark": "WAL durability: fsynced appends and recovery",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **measured,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")

    append = measured["append"]
    recovery = measured["recovery"]
    salvage = measured["salvage"]
    print(f"append throughput ({append['n_ops']} framed records): "
          f"{append['ops_per_sec']:.0f} ops/s "
          f"({append['fsyncs']} fsync(s), "
          f"{append['wal_bytes']} WAL bytes)")
    print(f"recovery of a {recovery['n_ops']}-op tail:")
    print(f"  replay tail        {recovery['replay_tail_ms']:9.3f} ms")
    print(f"  after checkpoint   "
          f"{recovery['replay_checkpointed_ms']:9.3f} ms  "
          f"({recovery['checkpoint_speedup']:.1f}x)")
    print(f"salvage sweep over {salvage['n_ops']} records: "
          f"{salvage['salvage_ms']:.3f} ms, "
          f"{salvage['bytes_quarantined']} byte(s) quarantined")
    print(f"artifact: {args.out}")

    if args.check:
        failures = check(measured)
        if failures:
            for f in failures:
                print(f"FAIL: {f}", file=sys.stderr)
            return 1
        print("OK: one fsync per append, recovery exact, salvage "
              "lossless, throughput above floor")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
