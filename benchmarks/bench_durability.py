#!/usr/bin/env python
"""Benchmark: durable WAL append throughput and recovery cost.

Three measurements over the framed write-ahead journal
(:mod:`repro.storage.framing`), swept across every storage backend
(``file`` / ``sqlite`` — see ``docs/storage.md``):

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

``--backend`` narrows the sweep to one backend; the default measures
both and nests the results per backend in the artifact.

``--check`` asserts correctness invariants, not precise timings (shared
runners are too noisy for tight throughput gates): one fsync per
append, recovery is state-identical to the writer, salvage keeps
the valid prefix, and every backend clears a deliberately modest
absolute throughput floor that only a pathological regression (e.g. an
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
from repro.storage.backend import FileBackend, StorageBackend
from repro.storage.journal import DurableLattice, JournalFile
from repro.storage.sqlite_backend import SqliteBackend

BACKENDS = ("file", "sqlite")

# Any slower than this, even paying one fsync per append, and something
# is structurally wrong with the backend, not merely a noisy runner.
MIN_OPS_PER_SEC = 100.0


def make_fs(backend: str, tmp: str) -> StorageBackend:
    """A fresh backend instance rooted inside the scratch directory."""
    if backend == "file":
        return FileBackend()
    return SqliteBackend(Path(tmp) / "bench.sqlite")


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


def bench_append(backend: str, n_ops: int) -> dict:
    """Ops/second appended to the WAL, one fsync per append."""
    ops = script(n_ops)
    with tempfile.TemporaryDirectory() as tmp:
        fs = make_fs(backend, tmp)
        try:
            path = Path(tmp) / "bench.wal"
            durable = DurableLattice(path, fs=fs)
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
                "wal_bytes": fs.size(path),
            }
        finally:
            fs.close()


def bench_recovery(backend: str, n_ops: int, repeats: int) -> dict:
    """Reopen cost with a long WAL tail, then after a checkpoint."""
    ops = script(n_ops)
    with tempfile.TemporaryDirectory() as tmp:
        fs = make_fs(backend, tmp)
        try:
            path = Path(tmp) / "bench.wal"
            writer = DurableLattice(path, fs=fs)
            for op in ops:
                writer.apply(op)
            expected = writer.lattice.state_fingerprint()

            def reopen() -> str:
                durable = DurableLattice.reopen(path, fs=fs)
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
            assert fingerprint == expected, (
                "post-checkpoint recovery diverged"
            )

            return {
                "n_ops": len(ops),
                "replay_tail_ms": min(tail_times) * 1e3,
                "replay_checkpointed_ms": min(ckpt_times) * 1e3,
                "checkpoint_speedup": min(tail_times) / min(ckpt_times),
                "recovered_fingerprint_matches": True,
            }
        finally:
            fs.close()


def bench_salvage(backend: str, n_ops: int) -> dict:
    """A salvage pass over a log with a corrupt suffix (CRC sweep)."""
    ops = script(n_ops)
    with tempfile.TemporaryDirectory() as tmp:
        fs = make_fs(backend, tmp)
        try:
            path = Path(tmp) / "bench.wal"
            writer = DurableLattice(path, fs=fs)
            for op in ops:
                writer.apply(op)
            n_valid = len(JournalFile(path, fs=fs).operations())
            fs.append_bytes(
                path,
                b"#W1 0 9 00000000 junkjunk\n" + b"#W1 0 44 torn-tail",
            )
            start = time.perf_counter()
            report = JournalFile(path, fs=fs).repair("salvage")
            elapsed = time.perf_counter() - start
            survivors = len(JournalFile(path, fs=fs).operations())
            return {
                "n_ops": n_valid,
                "salvage_ms": elapsed * 1e3,
                "records_recovered": report.records_recovered,
                "bytes_quarantined": report.bytes_quarantined,
                "valid_prefix_kept": survivors == n_valid,
            }
        finally:
            fs.close()


def check_backend(name: str, measured: dict) -> list[str]:
    """Correctness invariants for one backend's sweep results."""
    append = measured["append"]
    recovery = measured["recovery"]
    salvage = measured["salvage"]
    failures = []
    # On sqlite the counted fsync is a no-op the commit subsumes, but it
    # is still issued once per append.
    if append["fsyncs"] != append["n_ops"]:
        failures.append(
            f"[{name}] {append['fsyncs']} fsync(s) for "
            f"{append['n_ops']} appends; expected one per append"
        )
    if append["ops_per_sec"] < MIN_OPS_PER_SEC:
        failures.append(
            f"[{name}] append throughput fell to "
            f"{append['ops_per_sec']:.0f} ops/s "
            f"(floor {MIN_OPS_PER_SEC:.0f})"
        )
    if not recovery["recovered_fingerprint_matches"]:
        failures.append(
            f"[{name}] recovery diverged from the writer's state"
        )
    if not salvage["valid_prefix_kept"]:
        failures.append(f"[{name}] salvage lost part of the valid prefix")
    if salvage["records_recovered"] != salvage["n_ops"]:
        failures.append(
            f"[{name}] salvage recovered {salvage['records_recovered']} "
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
        "--backend", choices=BACKENDS + ("all",), default="all",
        help="storage backend to measure (default: sweep both)",
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

    backends = BACKENDS if args.backend == "all" else (args.backend,)
    per_backend = {}
    for name in backends:
        per_backend[name] = {
            "append": bench_append(name, n_append),
            "recovery": bench_recovery(name, n_recover, repeats),
            "salvage": bench_salvage(name, n_recover),
        }

    result = {
        "benchmark": "WAL durability: fsynced appends and recovery",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "backends": per_backend,
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")

    for name, measured in per_backend.items():
        append = measured["append"]
        recovery = measured["recovery"]
        salvage = measured["salvage"]
        print(f"== backend: {name}")
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
        failures = []
        for name, measured in per_backend.items():
            failures.extend(check_backend(name, measured))
        if failures:
            for f in failures:
                print(f"FAIL: {f}", file=sys.stderr)
            return 1
        print(f"OK ({', '.join(per_backend)}): one fsync per append, "
              "recovery exact, salvage lossless, throughput above floor")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
