"""End-to-end benchmark of the HTTP service, with per-layer attribution.

    python3 benchmarks/service/run.py --workload ingest --seed 1 --trace 0

For each workload this starts ``repro.server`` in a separate process
(``server_main.py`` builds the workload's store, then calls
``serve_service``) three times and reports the median set-up time, and
drives the last server from this process with two threads, each holding
one keep-alive ``http.client`` connection, in a closed loop: a 3 s
warm-up that is discarded, then ``--seconds`` of measurement.  Every
write is acknowledged only after an fsync (``fsync="always"``).  The
seed draws the requests.  The run then checks the outputs, prints every
metric by name and unit, and ends with one JSON line::

    {"correct": true, "attempted": 812, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` runs a
server whose layers are wrapped by ``tracer.py`` and reports the
per-layer metrics, and leaving ``--trace`` out runs both and adds
``trace.overhead_frac``.  ``--repeat K`` runs seeds N..N+K-1 and reports
medians and quartiles; ``--out FILE`` keeps every run for ``compare.py``.
``--quick`` shrinks the lattices and windows for a smoke test.

An outcome is *ok* when it is a 200, or a documented schema rejection
(404 unknown-type/property, 409) of a workload that expects them.
Anything else -- 5xx, 400, 429, a transport error -- fails the run, as
does any failed check.  Latency is per client loop (one interaction:
a single request in read_cards and ingest, write + two reads in
evolve_large, schema read + write in governed_migrate); a loop with a
failed request counts as infinitely slow.
"""

from __future__ import annotations

import argparse
import http.client
import json
import math
import os
import shutil
import signal
import socket
import statistics
import subprocess
import sys
import threading
import time
import traceback
from collections import Counter
from pathlib import Path
from random import Random
from time import perf_counter
from typing import NamedTuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SRC = ROOT / "src"

if not (SRC / "repro" / "server.py").is_file():
    sys.exit(f"run.py: no repro sources under {SRC}; run it from a checkout")
sys.path[:0] = [str(SRC), str(HERE)]

from tracer import BINDINGS  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    Request,
    Response,
    initial_lattice,
)

from repro.api import Objectbase  # noqa: E402
from repro.core.axioms import check_all  # noqa: E402
from repro.core.errors import ERROR_CODES  # noqa: E402
from repro.core.operations import operation_from_dict  # noqa: E402
from repro.core.soundness import Oracle  # noqa: E402
from repro.storage.journal import JournalFile  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
CLIENTS = 2
SETUPS = 3
CHECK_CARDS = 50
JSON_HEADERS = {"Content-Type": "application/json"}
NOT_FOUND_CODES = {"unknown-type", "unknown-property"}


def percentile(values: list[float], p: float) -> float:
    """Nearest-rank percentile (``inf`` entries sort last); 0 if empty."""
    ordered = sorted(values)
    if not ordered:
        return 0.0
    return ordered[max(0, math.ceil(p / 100 * len(ordered)) - 1)]


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# -- the server process ----------------------------------------------------


class ServerFailed(RuntimeError):
    pass


def _free_port() -> int:
    with socket.socket() as sock:
        sock.bind(("127.0.0.1", 0))
        return sock.getsockname()[1]


class Server:
    """One ``server_main.py`` process, from spawn to a stopped report."""

    def __init__(self, run_dir: Path, name: str, workload: str,
                 n_types: int, trace: bool) -> None:
        self.dir = run_dir / name
        self.dir.mkdir(parents=True)
        self.wal = self.dir / "store" / "schema.wal"
        self.report_path = self.dir / "report.json"
        self.args = [
            "--workload", workload, "--n-types", str(n_types),
            "--store", str(self.dir / "store"),
            "--report", str(self.report_path),
        ] + (["--trace"] if trace else [])
        self.proc: subprocess.Popen | None = None
        self.port = 0

    def start(self) -> float:
        """Spawn and wait until ``/readyz`` answers 200; the seconds it
        took are the set-up time.  A port taken between choosing and
        binding it is retried on another."""
        for _ in range(3):
            self.port = _free_port()
            with open(self.dir / "server.log", "ab") as log:
                started = perf_counter()
                self.proc = subprocess.Popen(
                    [sys.executable, str(HERE / "server_main.py"),
                     "--port", str(self.port)] + self.args,
                    stdin=subprocess.DEVNULL, stdout=log,
                    stderr=subprocess.STDOUT, cwd=ROOT,
                )
            if self._wait_ready():
                return perf_counter() - started
            self.proc.kill()
            self.proc.wait()
            shutil.rmtree(self.dir / "store", ignore_errors=True)
        raise ServerFailed(f"server did not start; see {self.dir}/server.log")

    def _wait_ready(self) -> bool:
        deadline = perf_counter() + 120
        while perf_counter() < deadline and self.proc.poll() is None:
            conn = http.client.HTTPConnection("127.0.0.1", self.port, timeout=5)
            try:
                conn.request("GET", "/readyz")
                if conn.getresponse().status == 200:
                    return True
            except OSError:
                time.sleep(0.005)
            finally:
                conn.close()
        return False

    def memory_mb(self, field: str) -> float:
        """``VmRSS`` (resident now) or ``VmHWM`` (peak resident) in MB."""
        status = Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith(field + ":"):
                return int(line.split()[1]) / 1024
        raise ServerFailed(f"no {field} in /proc status")

    def sample_rss(self, stop: threading.Event, samples: list[float]) -> None:
        while not stop.wait(0.1):
            samples.append(self.memory_mb("VmRSS"))

    def stop(self) -> dict | None:
        """SIGTERM, wait, and return the exit report (None if the
        process had to be killed or wrote none)."""
        if self.proc is None or self.proc.poll() is not None:
            return None
        self.proc.send_signal(signal.SIGTERM)
        try:
            code = self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
            return None
        if code != 0 or not self.report_path.exists():
            return None
        return json.loads(self.report_path.read_text())


# -- the client ------------------------------------------------------------


class Connection(http.client.HTTPConnection):
    """Keep-alive connection that sends a request without waiting.

    ``http.client`` writes a request's headers and body in two sends;
    with Nagle's algorithm on, the body would wait for the server's
    delayed ACK, a stall of the client's making.  The server's own
    two-write response is left as it is: that stall is measured.
    """

    def connect(self) -> None:
        super().connect()
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)


class Sample(NamedTuple):
    """One request as the client saw it."""

    phase: str  # warmup | measure | control
    port: int | None  # local port of the connection (None: never sent)
    write: bool
    status: int  # 0: transport error
    code: str  # error code of a non-200 reply
    outcome: str  # ok | rejected | failed
    started: float
    seconds: float


class ClientLog:
    """What one client thread saw (no locking: one writer)."""

    def __init__(self) -> None:
        self.requests: list[Sample] = []
        # (phase, latency seconds, ok)
        self.loops: list[tuple[str, float, bool]] = []
        self.acked: list[dict] = []
        self.errors: list[str] = []


class Load:
    """The client side: one keep-alive connection per client thread."""

    def __init__(self, workload, port: int) -> None:
        self.workload = workload
        self.conns = [
            Connection("127.0.0.1", port, timeout=120) for _ in range(CLIENTS)
        ]

    def exchange(self, log: ClientLog, phase: str, conn: Connection,
                 request) -> tuple[Response, str]:
        """Send one request, log it, and return (reply, outcome); a
        transport error is status 0."""
        port = None
        started = perf_counter()
        try:
            conn.request(request.method, request.path, body=request.body,
                         headers=JSON_HEADERS if request.body else {})
            port = conn.sock.getsockname()[1]
            resp = conn.getresponse()
            reply = Response(resp.status, resp.headers, resp.read())
        except (OSError, http.client.HTTPException):
            conn.close()
            reply = Response(0)
        seconds = perf_counter() - started
        outcome, code = self.outcome(reply.status, reply.body)
        log.requests.append(Sample(
            phase, port, request.write, reply.status, code, outcome,
            started, seconds,
        ))
        return reply, outcome

    def outcome(self, status: int, data: bytes) -> tuple[str, str]:
        """(``ok`` | ``rejected`` | ``failed``, error code)."""
        if status == 200:
            return "ok", ""
        try:
            code = json.loads(data)["error"]["code"]
        except (ValueError, KeyError, TypeError):
            code = ""
        if self.workload.rejections and (
            (status == 404 and code in NOT_FOUND_CODES)
            or (status == 409 and code in ERROR_CODES)
        ):
            return "rejected", code
        return "failed", code

    def drive(self, conn: Connection, client, log: ClientLog, phase: str,
              deadline: float) -> None:
        try:
            self._drive(conn, client, log, phase, deadline)
        except Exception:  # noqa: BLE001 - a client bug must fail the run
            log.errors.append(traceback.format_exc())

    def _drive(self, conn: Connection, client, log: ClientLog, phase: str,
               deadline: float) -> None:
        while perf_counter() < deadline:
            started = perf_counter()
            loop_ok = True
            loop = client.loop()
            request = next(loop)
            while True:
                reply, outcome = self.exchange(log, phase, conn, request)
                loop_ok = loop_ok and outcome != "failed"
                if reply.status == 200 and request.write:
                    log.acked.extend(self._acked_ops(request, reply.body))
                if reply.status == 0:
                    loop.close()
                    break
                try:
                    request = loop.send(reply)
                except StopIteration:
                    break
            log.loops.append((phase, perf_counter() - started, loop_ok))

    @staticmethod
    def _acked_ops(request, data: bytes) -> list[dict]:
        if request.path == "/v1/migrate":
            reply = json.loads(data)
            return reply["operations"] if reply["applied"] else []
        return list(request.ops)

    def phase(self, clients, logs, phase: str, seconds: float) -> float:
        """Run every client for ``seconds``; returns the elapsed time
        until the last loop begun inside the window finished."""
        started = perf_counter()
        deadline = started + seconds
        threads = [
            threading.Thread(
                target=self.drive,
                args=(conn, client, log, phase, deadline),
            )
            for conn, client, log in zip(self.conns, clients, logs)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        return perf_counter() - started

    def control(self, log: ClientLog, path: str) -> Response:
        """A GET outside the load (checks, scrapes), on connection 0."""
        return self.exchange(log, "control", self.conns[0],
                             Request("GET", path))[0]

    def scrape(self, log: ClientLog) -> dict[str, float]:
        """Registry counters from ``GET /metrics`` (families summed
        over labels)."""
        out: dict[str, float] = {}
        for line in self.control(log, "/metrics").body.decode().splitlines():
            if line and not line.startswith("#"):
                sample, _, value = line.rpartition(" ")
                family = sample.split("{", 1)[0]
                out[family] = out.get(family, 0.0) + float(value)
        return out

    def close(self) -> None:
        for conn in self.conns:
            conn.close()


# -- one run ---------------------------------------------------------------


def run_once(workload_name: str, seed: int, seconds: float, trace: bool,
             quick: bool) -> dict:
    """Set up, load, check and measure one workload once."""
    workload = WORKLOADS[workload_name]
    n_types = workload.quick_types if quick else workload.n_types
    warmup = 0.5 if quick else 3.0
    run_dir = HERE / ".runs" / (
        f"{workload_name}-s{seed}-t{int(trace)}-{os.getpid()}"
    )
    shutil.rmtree(run_dir, ignore_errors=True)
    servers: list[Server] = []
    try:
        setups = []
        for i in range(SETUPS):
            server = Server(run_dir, f"setup{i}", workload_name, n_types,
                            trace)
            servers.append(server)
            setups.append(server.start())
            if i < SETUPS - 1:
                server.stop()
                shutil.rmtree(server.dir, ignore_errors=True)
        server = servers[-1]
        result = _load_and_check(workload, seed, seconds, warmup, trace,
                                 n_types, server)
        result["metrics"]["setup_s"] = (statistics.median(setups), "s")
        result["setup_samples"] = setups
    finally:
        for s in servers:
            s.stop()
    if result["correct"]:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        print(f"run.py: failed run kept in {run_dir}", file=sys.stderr)
    return result


def _load_and_check(workload, seed, seconds, warmup, trace, n_types,
                    server: Server) -> dict:
    lattice = initial_lattice(n_types)
    clients = workload.clients(seed, lattice, CLIENTS)
    load = Load(workload, server.port)
    logs = [ClientLog() for _ in range(CLIENTS)]
    control = ClientLog()
    try:
        load.phase(clients, logs, "warmup", warmup)
        if trace:
            before = load.scrape(control)
            wal_before = server.wal.stat().st_size
        rss = [server.memory_mb("VmRSS")]
        stop = threading.Event()
        sampler = threading.Thread(target=server.sample_rss, args=(stop, rss))
        sampler.start()
        try:
            elapsed = load.phase(clients, logs, "measure", seconds)
        finally:
            stop.set()
            sampler.join()
        if trace:
            after = load.scrape(control)
            wal_after = server.wal.stat().st_size
        live = _live_state(load, control, seed)
        peak_rss = server.memory_mb("VmHWM")
    finally:
        load.close()
    report = server.stop()

    measured = [r for log in logs for r in log.requests
                if r.phase == "measure"]
    loops = [
        took if ok else math.inf
        for log in logs for phase, took, ok in log.loops
        if phase == "measure"
    ]
    checks = _checks(server, report, trace, logs, control, live)
    metrics = {
        "ok_rps": (
            sum(1 for r in measured if r.outcome != "failed") / elapsed,
            "req/s",
        ),
        "latency_p50_ms": (percentile(loops, 50) * 1000, "ms"),
        "latency_tail_ms": (percentile(loops, workload.tail) * 1000, "ms"),
        "rss_mb": (statistics.median(rss), "MB"),
        "server.peak_rss_mb": (peak_rss, "MB"),
    }
    if trace and report is not None:
        metrics.update(_layer_metrics(
            logs + [control], report["records"], measured, before, after,
            wal_after - wal_before,
        ))
    failed_checks = sum(1 for ok, _ in checks.values() if not ok)
    return {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "seconds": seconds,
        "n_types": n_types,
        "elapsed": elapsed,
        "loops": len(loops),
        "correct": failed_checks == 0,
        "attempted": len(measured),
        "failed": sum(1 for r in measured if r.outcome == "failed")
        + failed_checks,
        "metrics": metrics,
        "checks": checks,
    }


def _live_state(load: Load, control: ClientLog, seed: int) -> dict:
    """What the running server says: every type, 50 seeded cards and
    the DDL, read after the load so the checks can compare them with
    the store reopened from disk."""
    names = json.loads(load.control(control, "/v1/types").body)["types"]
    sample = Random(f"{seed}/check").sample(names, min(CHECK_CARDS, len(names)))
    cards = {}
    for name in sample:
        reply = load.control(control, f"/v1/types/{name}")
        cards[name] = json.loads(reply.body) if reply.status == 200 else None
    reply = load.control(control, "/v1/schema")
    return {
        "cards": cards,
        "ddl": reply.body.decode("utf-8") if reply.status == 200 else None,
    }


def _op_key(d: dict) -> str:
    return json.dumps(operation_from_dict(d).to_dict(), sort_keys=True)


def _oracle_card(lattice, oracle: Oracle, name: str) -> dict:
    def sem(props):
        return sorted(p.semantics for p in props)

    return {
        "name": name,
        "Pe": sorted(lattice.pe(name)),
        "Ne": sem(lattice.ne(name)),
        "P": sorted(oracle.p(name)),
        "PL": sorted(oracle.pl(name)),
        "N": sem(oracle.n(name)),
        "H": sem(oracle.h(name)),
        "I": sem(oracle.i(name)),
    }


def _checks(server: Server, report, trace: bool, logs, control,
            live) -> dict[str, tuple[bool, str]]:
    """name -> (passed, detail)."""
    checks: dict[str, tuple[bool, str]] = {}
    bad = Counter(
        f"{r.status} {r.code}".strip()
        for log in logs + [control] for r in log.requests
        if r.outcome == "failed"
    )
    checks["statuses"] = (not bad, ", ".join(
        f"{k} x{v}" for k, v in sorted(bad.items())
    ) or "every status documented")
    errors = [e for log in logs for e in log.errors]
    checks["clients"] = (
        not errors, errors[0].strip().splitlines()[-1] if errors
        else "no client thread raised",
    )

    checks["server-exit"] = (
        report is not None, "clean exit with a report" if report
        else f"no clean exit; see {server.dir}/server.log",
    )
    if report is not None:
        checks["wrappers"] = (
            report["wrapped"] == (BINDINGS if trace else [])
            and not report["unrestored"],
            f"{len(report['wrapped'])} wrapped while serving, "
            f"{len(report['unrestored'])} left wrapped after",
        )

    ob = Objectbase.open(server.wal)
    lattice = ob.lattice
    logged = Counter(_op_key(op.to_dict())
                     for op in JournalFile(server.wal).operations())
    acked = Counter(_op_key(op) for log in logs for op in log.acked)
    lost = acked - logged
    checks["acked-durable"] = (
        not lost, f"{sum(acked.values())} acknowledged ops, "
        f"{sum(lost.values())} missing after reopen",
    )
    checks["reopen-matches-live"] = (
        live["ddl"] is not None and ob.schema_ddl() == live["ddl"],
        f"{len(lattice)} types",
    )
    violations = check_all(lattice)
    checks["axioms"] = (not violations, f"{len(violations)} violation(s)")
    oracle = Oracle(lattice)
    wrong = [
        name for name, card in live["cards"].items()
        if name not in lattice or card != _oracle_card(lattice, oracle, name)
    ]
    checks["oracle-cards"] = (
        not wrong, f"{len(live['cards'])} cards, {len(wrong)} differ"
        + (f" ({', '.join(wrong[:3])})" if wrong else ""),
    )
    if trace and report is not None:
        unmatched = _join(logs + [control], report["records"])[1]
        checks["trace-join"] = (
            unmatched == 0, f"{unmatched} request(s) not matched"
        )
    return checks


# -- per-layer metrics -----------------------------------------------------


def _join(logs, records) -> tuple[list[tuple[Sample, dict]], int]:
    """Pair each client request with the server record of the same
    connection and position: ([(sample, record)], unmatched count).
    Records of one connection are in order: one handler thread serves
    it, one request at a time."""
    by_port: dict[int, list[dict]] = {}
    for rec in records:
        by_port.setdefault(rec["port"], []).append(rec)
    sent: dict[int | None, list[Sample]] = {}
    for r in sorted((r for log in logs for r in log.requests),
                    key=lambda r: r.started):
        sent.setdefault(r.port, []).append(r)
    pairs, unmatched = [], len(sent.pop(None, []))
    for port, samples in sent.items():
        recs = by_port.get(port, [])
        if len(recs) != len(samples):
            unmatched += abs(len(recs) - len(samples))
            continue
        pairs.extend(zip(samples, recs))
    return pairs, unmatched


def _layer_metrics(logs, records, measured, before, after,
                   wal_bytes: int) -> dict:
    pairs = [(r, rec) for r, rec in _join(logs, records)[0]
             if r.phase == "measure"]
    recs = [rec for _, rec in pairs]
    self_s: Counter = Counter()
    calls: Counter = Counter()
    for rec in recs:
        self_s.update(rec["self"])
        calls.update(rec["calls"])

    def mean_ms(span: str) -> float:
        return ratio(self_s[span], calls[span]) * 1000

    def delta(family: str) -> float:
        return after.get(family, 0.0) - before.get(family, 0.0)

    writes = [r for r in measured if r.write]
    acked = sum(1 for r in writes if r.status == 200)
    dispatch = sum(rec["dispatch"] for rec in recs)
    publishes = delta("repro_snapshot_publishes_total")
    reused = delta("repro_snapshot_unchanged_total")
    fsyncs = delta("repro_wal_fsync_seconds_count")
    return {
        "server.dispatch_ms_p50": (
            percentile([rec["dispatch"] for rec in recs], 50) * 1000, "ms"
        ),
        "server.outside_ms_p50": (
            percentile([r.seconds - rec["dispatch"] for r, rec in pairs], 50)
            * 1000, "ms",
        ),
        "server.encode_ms_mean": (mean_ms("server.encode"), "ms"),
        "server.unattributed_frac": (
            ratio(sum(rec["unattributed"] for rec in recs), dispatch), "ratio"
        ),
        "concurrent.lock_wait_ms_mean": (mean_ms("concurrent.lock_wait"), "ms"),
        "concurrent.lock_hold_ms_mean": (
            ratio(sum(rec["hold"] for rec in recs),
                  sum(rec["holds"] for rec in recs)) * 1000, "ms",
        ),
        "concurrent.publish_ms_mean": (mean_ms("concurrent.publish"), "ms"),
        "concurrent.publish_reuse_frac": (
            ratio(reused, publishes + reused), "ratio"
        ),
        "core.validate_ms_mean": (mean_ms("core.validate"), "ms"),
        "core.lattice_copies_per_write": (
            ratio(calls["core.copy"], len(writes)), "count"
        ),
        "core.derive_ms_mean": (mean_ms("core.derive"), "ms"),
        "core.cone_types_mean": (
            ratio(delta("repro_derivation_cone_types_total"),
                  delta("repro_derivations_total")), "types",
        ),
        "core.verify_ms_mean": (mean_ms("core.verify"), "ms"),
        "core.rejected_frac": (
            ratio(sum(1 for r in writes if r.outcome == "rejected"),
                  len(writes)),
            "ratio",
        ),
        "storage.append_ms_mean": (mean_ms("storage.append"), "ms"),
        "storage.fsync_ms_mean": (
            ratio(delta("repro_wal_fsync_seconds_sum"), fsyncs) * 1000, "ms"
        ),
        "storage.fsyncs_per_write": (ratio(fsyncs, acked), "count"),
        "storage.wal_bytes_per_write": (ratio(wal_bytes, acked), "B"),
        "staticcheck.analyze_ms_mean": (mean_ms("staticcheck.analyze"), "ms"),
        "staticcheck.summaries_ms_mean": (
            mean_ms("staticcheck.summaries"), "ms"
        ),
        "staticcheck.gate_rejections": (
            sum(1 for r in writes if r.code == "lint-rejected"), "count"
        ),
        "ddl.print_ms_mean": (mean_ms("ddl.print"), "ms"),
        "ddl.parse_ms_mean": (mean_ms("ddl.parse"), "ms"),
        "ddl.diff_ms_mean": (mean_ms("ddl.diff"), "ms"),
    }


# -- reporting -------------------------------------------------------------


def _metric_names(trace: bool | None) -> list[str]:
    e2e = [m["name"] for m in BENCHMARK["end_to_end"]]
    layers = [m["name"] for m in BENCHMARK["per_layer"]]
    if trace is None:
        return e2e + layers + ["trace.overhead_frac"]
    return layers if trace else e2e


def _print_run(result: dict, names: list[str]) -> None:
    trace = {False: "0", True: "1", None: "0 then 1"}[result["trace"]]
    print(
        f"== {result['workload']} seed={result['seed']} "
        f"trace={trace}: {result['attempted']} requests, "
        f"{result['loops']} loops in {result['elapsed']:.2f} s, "
        f"{CLIENTS} clients, {result['n_types']} types"
    )
    for name in names:
        if name in result["metrics"]:
            value, unit = result["metrics"][name]
            print(f"  {name:32s} {value:14.4f} {unit}")
    for name, (ok, detail) in result["checks"].items():
        print(f"  check {name:36s} {'ok' if ok else 'FAILED'}: {detail}")


def _combine(untraced: dict, traced: dict) -> dict:
    """The untraced run's numbers, the traced run's layers, and the
    throughput the tracing cost."""
    merged = dict(untraced)
    merged["metrics"] = {**traced["metrics"], **untraced["metrics"]}
    merged["metrics"]["trace.overhead_frac"] = (
        1 - ratio(traced["metrics"]["ok_rps"][0],
                  untraced["metrics"]["ok_rps"][0]),
        "ratio",
    )
    merged["checks"] = {
        **{f"{k} (untraced)": v for k, v in untraced["checks"].items()},
        **{f"{k} (traced)": v for k, v in traced["checks"].items()},
    }
    merged["correct"] = untraced["correct"] and traced["correct"]
    merged["attempted"] = untraced["attempted"] + traced["attempted"]
    merged["failed"] = untraced["failed"] + traced["failed"]
    merged["trace"] = None
    return merged


def _summary(results: list[dict], names: list[str]) -> dict:
    """Median and quartiles per workload and metric, printed; returns
    ``{workload/metric: median}``."""
    medians = {}
    print("== summary: median [q1, q3] (IQR as a share of the median)")
    for workload in dict.fromkeys(r["workload"] for r in results):
        runs = [r for r in results if r["workload"] == workload]
        for name in names:
            values = [r["metrics"][name][0] for r in runs
                      if name in r["metrics"]]
            if not values:
                continue
            unit = runs[0]["metrics"][name][1]
            med = statistics.median(values)
            q1, _, q3 = (statistics.quantiles(values, n=4)
                         if len(values) > 1 else (med, med, med))
            spread = ratio(q3 - q1, abs(med))
            print(f"  {workload:17s} {name:32s} {med:12.4f} "
                  f"[{q1:.4f}, {q3:.4f}] {unit} ({spread:.1%})")
            medians[f"{workload}/{name}"] = (med, unit)
    return medians


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="one workload (default: all four)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="measured window (default: BENCHMARK.json "
                             "run_seconds, 2 with --quick)")
    parser.add_argument("--trace", type=int, choices=(0, 1),
                        help="0: end-to-end metrics, 1: per-layer metrics "
                             "(default: both runs)")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, seeds N..N+K-1")
    parser.add_argument("--quick", action="store_true",
                        help="small lattices and 2 s windows (smoke test)")
    parser.add_argument("--out", type=Path, help="write every run as JSON")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.repeat < 1 or (
        args.seconds is not None and args.seconds <= 0
    ):
        parser.error("--seed must be >= 0, --repeat >= 1, --seconds > 0")
    seconds = args.seconds or (2.0 if args.quick else BENCHMARK["run_seconds"])
    trace = None if args.trace is None else bool(args.trace)
    names = _metric_names(trace)
    workloads = [args.workload] if args.workload else list(WORKLOADS)

    results = []
    for workload in workloads:
        for seed in range(args.seed, args.seed + args.repeat):
            modes = [False, True] if trace is None else [trace]
            runs = [run_once(workload, seed, seconds, t, args.quick)
                    for t in modes]
            result = runs[0] if len(runs) == 1 else _combine(*runs)
            _print_run(result, names)
            results.append(result)
            sys.stdout.flush()

    if args.out:
        args.out.write_text(json.dumps({"runs": results}, indent=1) + "\n")
    if len(results) == 1:
        metrics = results[0]["metrics"]
    else:
        medians = _summary(results, names)
        if len(workloads) == 1:
            medians = {k.split("/", 1)[1]: v for k, v in medians.items()}
        metrics = medians
    correct = all(r["correct"] for r in results)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
            if name.rsplit("/", 1)[-1] in names
        },
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:  # noqa: BLE001 - report, and print no result line
        traceback.print_exc()
        sys.exit(1)
