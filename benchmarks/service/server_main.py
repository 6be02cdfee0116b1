"""Benchmark server process: build the seeded store, then serve it.

``run.py`` starts one of these per set-up::

    python3 benchmarks/service/server_main.py --workload ingest \\
        --n-types 1000 --store DIR --port 8787 --report FILE [--trace]

It builds the workload's lattice, replays it into a file-backed
store with ``DurabilityPolicy(fsync="always")`` as one AT batch,
checkpoints, and serves it through ``repro.server.serve_service`` with
the workload's lint mode.  SIGTERM stops it.  On the way out it writes a
JSON report: the bindings that held a benchmark wrapper while serving,
any left wrapped after restoring, and with ``--trace`` the per-request
layer records of :class:`tracer.LayerTracer`.
"""

from __future__ import annotations

import argparse
import json
import signal
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parents[1] / "src"), str(HERE)]

from tracer import LayerTracer, wrapped_bindings  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    build_operations,
    initial_lattice,
)

from repro.concurrent import ConcurrentObjectbase  # noqa: E402
from repro.server import ObjectbaseService, serve_service  # noqa: E402
from repro.storage.framing import DurabilityPolicy  # noqa: E402


def build_store(path: Path, n_types: int) -> ConcurrentObjectbase:
    ops = build_operations(initial_lattice(n_types))
    store = ConcurrentObjectbase.open(
        path, durability=DurabilityPolicy(fsync="always")
    )
    store.apply_batch(ops, verify_on_commit=False)
    store.checkpoint()
    return store


def _stop(signum, frame) -> None:
    raise KeyboardInterrupt


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--n-types", type=int, required=True)
    parser.add_argument("--store", type=Path, required=True)
    parser.add_argument("--port", type=int, required=True)
    parser.add_argument("--report", type=Path, required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    signal.signal(signal.SIGTERM, _stop)
    args.store.mkdir(parents=True, exist_ok=True)
    store = build_store(args.store / "schema.wal", args.n_types)
    service = ObjectbaseService(store, lint=WORKLOADS[args.workload].lint)
    tracer = LayerTracer()
    if args.trace:
        tracer.install()
    wrapped = wrapped_bindings()
    try:
        serve_service(service, "127.0.0.1", args.port)
    finally:
        unrestored = tracer.restore()
        args.report.write_text(json.dumps({
            "wrapped": wrapped,
            "unrestored": unrestored,
            "records": tracer.records,
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
