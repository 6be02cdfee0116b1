"""Governed-write cost by schema size: DDL diff, lint gate, effect summaries.

A governed write (``POST /v1/migrate`` or a gated ``POST /v1/batch``)
pays three schema-sized costs under the writer lock: the DDL differ,
the admission lint gate, and the effect summaries of the interference
check.  This script sweeps 250, 1k and 3k types
(``random_lattice(seed=0, extra_essential_prob=0)``, the service
benchmark's lattice) and times, each as median, quartiles and fastest
sample:

* ``diff``: ``diff_schemas`` to the live schema's DDL plus one new type;
* ``gate``: ``run_lint_gate(lattice, plan, "error")`` on a fixed 2-op
  plan of property edits on two leaf types: an MT-AB of a new property
  and an MT-DB of an existing one;
* ``summaries``: the effect summaries of that plan, from the gate's
  symbolic trace;
* ``gate_at``: the gate on the service benchmark's batch shape, an AT of
  a new type under two leaf types and an MT-AB on a third.  Reported,
  not checked: an AT puts the new type into ``Pe`` of the base type
  ``⊥``, which lists every type, and the derivation engine re-derives
  ``⊥`` in full, at O(Σ|PL|).  On these lattices Σ|PL| grows about 25
  times from 250 to 3k types, so ``gate_at`` grows faster than the
  schema for a reason outside the gate.

Run it as a script::

    PYTHONPATH=src python benchmarks/bench_migrate.py --out BENCH_migrate.json
    PYTHONPATH=src python benchmarks/bench_migrate.py --quick --check

``--parent FILE`` copies the sizes of an earlier run (the same script
run against another commit's ``src``) into the artifact beside this
run's, under ``"parent"``.

``--check`` asserts that, for every checked timing, the time ratio
between a larger size and 250 types is at most 1.25 times the size
ratio: the cost grows no faster than the schema.  It does not ask for
flat: the symbolic run copies the lattice once per step, which is O(n).
The ratio is taken between the fastest samples, as ``timeit`` advises:
a shared host's speed can drift by 20% over seconds
(``benchmarks/service/README.md``), which moves the median of the 3 ms
timings at 250 types by more than the slack.
"""

from __future__ import annotations

import argparse
import gc
import inspect
import json
import platform
import statistics
import sys
import time
from pathlib import Path

from repro.analysis import LatticeSpec, random_lattice
from repro.api import run_lint_gate
from repro.core.operations import (
    AddEssentialProperty,
    AddType,
    DropEssentialProperty,
)
from repro.core.properties import Property
from repro.ddl.ast import SchemaDecl, TypeDecl
from repro.ddl.differ import diff_schemas, schema_from
from repro.staticcheck import EvolutionPlan, plan_summaries

SIZES = (250, 1_000, 3_000)
#: Allowed growth of a timing beyond the growth of the schema.
SLACK = 1.25


def _quartiles(samples: list[float]) -> dict:
    q1, q2, q3 = statistics.quantiles(samples, n=4, method="inclusive")
    return {
        "median_ms": q2 * 1e3, "q1_ms": q1 * 1e3, "q3_ms": q3 * 1e3,
        "min_ms": min(samples) * 1e3,
    }


def _sample(fn) -> float:
    """One wall-time sample of ``fn``.  As ``timeit`` does, the cyclic
    garbage collector is off while it runs: a full collection walks the
    whole heap, so its share of a sample grows with everything the
    process holds, not with the work the timed code does."""
    gc.collect()
    gc.disable()
    try:
        started = time.perf_counter()
        fn()
        return time.perf_counter() - started
    finally:
        gc.enable()


def _summaries(lattice, plan):
    """The summaries' cost as the write path pays it.  ``plan_summaries``
    takes the gate's trace; a build whose ``plan_summaries(lattice,
    plan)`` traces the plan itself is timed with that run included."""
    if len(inspect.signature(plan_summaries).parameters) == 2:
        return lambda: plan_summaries(lattice, plan)
    trace = run_lint_gate(lattice, plan, "off").trace
    return lambda: plan_summaries(trace)


def workloads(n_types: int) -> dict:
    """The timed callables at one size."""
    lattice = random_lattice(
        LatticeSpec(n_types=n_types, seed=0, extra_essential_prob=0.0)
    )
    # The newest leaf types (no subtype but the base) with a property:
    # every edit below has the same small cone at every size.
    leaves = [
        t for t in sorted(lattice.types(), reverse=True)
        if t not in (lattice.root, lattice.base)
        and lattice.subtypes(t) == {lattice.base}
        and lattice.ne(t)
    ][:3]
    new_type = TypeDecl("T_bench_new", tuple(leaves[:2]))
    target = SchemaDecl(schema_from(lattice).types + (new_type,))
    assert len(diff_schemas(lattice, target)) == 1
    new_prop = Property("bench.q", "p1")
    plan = EvolutionPlan([
        AddEssentialProperty(leaves[0], new_prop),
        DropEssentialProperty(
            leaves[1], min(lattice.ne(leaves[1]), key=lambda p: p.semantics)
        ),
    ], name="bench-edit")
    plan_at = EvolutionPlan([
        AddType(new_type.name, new_type.supertypes),
        AddEssentialProperty(leaves[2], new_prop),
    ], name="bench-at")
    return {
        "diff": lambda: diff_schemas(lattice, target),
        "gate": lambda: run_lint_gate(lattice, plan, "error"),
        "summaries": _summaries(lattice, plan),
        "gate_at": lambda: run_lint_gate(lattice, plan_at, "error"),
    }


def sweep(repeats: int) -> list[dict]:
    """Quartiles of every timing at every size.  The sizes take turns
    within each repeat, so a drift of the host's speed over the run
    lands on all of them alike instead of on whichever ran last."""
    timed = {n: workloads(n) for n in SIZES}
    samples = {n: {name: [] for name in TIMINGS} for n in SIZES}
    for n in SIZES:
        for fn in timed[n].values():
            fn()  # warm caches (derivations, interned names)
    for _ in range(repeats):
        for name in TIMINGS:
            for n in SIZES:
                samples[n][name].append(_sample(timed[n][name]))
    return [
        {"n_types": n, **{
            name: _quartiles(samples[n][name]) for name in TIMINGS
        }}
        for n in SIZES
    ]


#: The timings ``--check`` holds to the schema's growth.
CHECKED = ("diff", "gate", "summaries")
TIMINGS = CHECKED + ("gate_at",)


def growth_failures(rows: list[dict]) -> list[str]:
    """Timings that grow faster than ``SLACK`` times the schema."""
    base = rows[0]
    failures = []
    for row in rows[1:]:
        size_ratio = row["n_types"] / base["n_types"]
        for name in CHECKED:
            ratio = row[name]["min_ms"] / base[name]["min_ms"]
            if ratio > SLACK * size_ratio:
                failures.append(
                    f"{name}: {row['n_types']}/{base['n_types']} types "
                    f"costs {ratio:.1f}x, more than {SLACK} x "
                    f"{size_ratio:.0f}"
                )
    return failures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true", help="fewer repeats (CI smoke)"
    )
    parser.add_argument(
        "--out", default="BENCH_migrate.json",
        help="where to write the JSON artifact",
    )
    parser.add_argument(
        "--check", action="store_true",
        help="exit non-zero when a timing grows faster than the schema",
    )
    parser.add_argument(
        "--parent", type=Path,
        help="an earlier run's JSON to keep beside this one",
    )
    args = parser.parse_args(argv)
    repeats = 9 if args.quick else 21

    rows = sweep(repeats)
    result = {
        "benchmark": "migrate size sweep",
        "mode": "quick" if args.quick else "full",
        "python": platform.python_version(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "repeats": repeats,
        "sizes": rows,
    }
    if args.parent is not None:
        parent = json.loads(args.parent.read_text())
        result["parent"] = {
            key: parent[key] for key in ("timestamp", "repeats", "sizes")
        }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for row in rows:
        print(f"{row['n_types']:>5} types: " + ", ".join(
            f"{name} {row[name]['median_ms']:.2f} ms "
            f"[{row[name]['q1_ms']:.2f}, {row[name]['q3_ms']:.2f}]"
            for name in TIMINGS
        ))
    failures = growth_failures(rows) if args.check else []
    for failure in failures:
        print(f"CHECK FAILED: {failure}", file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
