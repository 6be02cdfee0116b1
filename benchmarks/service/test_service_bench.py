"""Self-test of the service benchmark (``python -m pytest benchmarks/service``).

Runs every workload in ``--quick`` mode (small lattices, 2 s windows)
untraced and traced, and checks that each prints every metric
``BENCHMARK.json`` lists for that mode, with its unit, and passes its
correctness checks.  In-process tests check the tracer's wrapper hygiene
and that request bodies are a function of the seed alone.
"""

from __future__ import annotations

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

from tracer import (  # noqa: E402
    BINDINGS,
    TARGETS,
    LayerTracer,
    wrapped_bindings,
)
from workloads import WORKLOADS, Response, initial_lattice  # noqa: E402

from repro.ddl.differ import schema_from  # noqa: E402
from repro.ddl.printer import print_schema  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/service/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_quick_run_prints_every_metric(workload, trace, tmp_path):
    out = tmp_path / "runs.json"
    proc = _run("--quick", "--workload", workload, "--seed", "3",
                "--trace", str(trace), "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in listed}
    for m in listed:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        printed = [ln.split() for ln in lines if ln.split()[:1] == [m["name"]]]
        assert printed and printed[0][2] == m["unit"], m["name"]

    (run,) = json.loads(out.read_text())["runs"]
    assert all(ok for ok, _ in run["checks"].values()), run["checks"]
    ok, detail = run["checks"]["wrappers"]
    wrapped = len(BINDINGS) if trace else 0
    assert detail.startswith(f"{wrapped} wrapped while serving, 0 left")


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "service",
                    ignore=shutil.ignore_patterns(".runs", "__pycache__"))
    proc = _run("--workload", "ingest", "--seed", "1", "--seconds", "1",
                "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _bindings() -> dict[str, object]:
    out = {}
    for _, module, cls, attr in TARGETS:
        owner = importlib.import_module(module)
        owner = getattr(owner, cls) if cls else owner
        out[f"{module}.{cls}.{attr}" if cls else f"{module}.{attr}"] = (
            vars(owner)[attr]
        )
    return out


def test_tracer_wraps_and_restores_every_binding():
    originals = _bindings()
    assert sorted(originals) == BINDINGS
    assert wrapped_bindings() == []
    tracer = LayerTracer()
    tracer.install()
    try:
        assert wrapped_bindings() == BINDINGS
    finally:
        leftover = tracer.restore()
    assert leftover == []
    assert all(_bindings()[k] is v for k, v in originals.items())


def _bodies(workload: str, seed: int, loops: int = 40) -> list[tuple]:
    """The requests the clients send for ``loops`` loops, each request
    answered with a fixed reply (the schema read with the initial DDL)."""
    lattice = initial_lattice(WORKLOADS[workload].quick_types)
    ddl = print_schema(schema_from(lattice)).encode()
    reply = {
        "/v1/schema": Response(200, {"X-Schema-Generation": "7"}, ddl),
        "/v1/migrate": Response(200, {}, b'{"applied": false}'),
    }
    sent = []
    for client in WORKLOADS[workload].clients(seed, lattice, 2):
        for _ in range(loops):
            loop = client.loop()
            request = next(loop)
            while True:
                sent.append((request.method, request.path, request.body))
                try:
                    request = loop.send(
                        reply.get(request.path, Response(200, {}, b"{}"))
                    )
                except StopIteration:
                    break
    return sent


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_one_seed_gives_identical_bodies(workload):
    first = _bodies(workload, 11)
    assert first == _bodies(workload, 11)
    assert first != _bodies(workload, 12)
