"""A/B verdicts for the service benchmark, one row per workload x metric.

    python3 benchmarks/service/compare.py PARENT.json CHANGE.json
    python3 benchmarks/service/compare.py baseline.json:A baseline.json:B

Each argument is a ``run.py --out`` file, or ``FILE:SET`` for one set of
a file holding several (``baseline.json``).  Untraced runs are paired by
workload and seed (by position when the seeds differ); run the two
sides alternately so that drift hits both.  For every end-to-end metric
of ``BENCHMARK.json`` a row gives both medians with quartiles, the ratio
change/parent with the parent median it is relative to, the pairs the
change won (ties count for neither) and a verdict:

* ``improved``: at least 10 pairs, the change wins 9 in 10 of them, and
  the medians differ by more than the parent's interquartile range;
* ``regressed``: the change's median is worse than the parent's by more
  than the metric's bound;
* ``unresolved``: not regressed, but the parent's own spread (IQR as a
  share of the median) is wider than the bound, and not every change
  run reads better than every parent run;
* ``unchanged``: otherwise.

``failed_frac`` (failed / attempted requests) regresses on any increase.
The exit status is 1 when any row regressed.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
BENCHMARK = HERE.parents[1] / "BENCHMARK.json"
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(arg: str) -> list[dict]:
    path, _, name = arg.partition(":")
    data = json.loads(Path(path).read_text())
    if name:
        data = data[name]
    return [r for r in data["runs"] if not r["trace"]]


def pair_up(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["seed"]: r for r in change}
    if sorted(by_seed) == sorted(r["seed"] for r in parent):
        return [(r, by_seed[r["seed"]]) for r in parent]
    return list(zip(parent, change))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(pairs: list[tuple[float, float]], better: str,
            bound: float) -> tuple[str, int]:
    """(verdict, pairs won by the change) for one workload x metric."""
    parent = [p for p, _ in pairs]
    change = [c for _, c in pairs]
    sign = 1 if better == "lower" else -1
    q1, mp, q3 = quartiles(parent)
    mc = statistics.median(change)
    worse = sign * (mc - mp) / abs(mp) if mp else 0.0
    wins = sum(1 for p, c in pairs if sign * (c - p) < 0)
    if (len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs)
            and worse < 0 and abs(mc - mp) > q3 - q1):
        return "improved", wins
    if worse > bound:
        return "regressed", wins
    spread = (q3 - q1) / abs(mp) if mp else 0.0
    all_better = all(sign * (c - p) < 0 for c in change for p in parent)
    if spread > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def compare(parent_runs: list[dict], change_runs: list[dict],
            metrics: list[dict]) -> list[dict]:
    rows = []
    for workload in dict.fromkeys(r["workload"] for r in parent_runs):
        pairs = pair_up(
            [r for r in parent_runs if r["workload"] == workload],
            [r for r in change_runs if r["workload"] == workload],
        )
        if not pairs:
            continue
        for m in metrics:
            values = [(p["metrics"][m["name"]][0], c["metrics"][m["name"]][0])
                      for p, c in pairs]
            result, wins = verdict(values, m["better"], m["bound"])
            rows.append({
                "workload": workload, "metric": m["name"], "unit": m["unit"],
                "parent": quartiles([p for p, _ in values]),
                "change": quartiles([c for _, c in values]),
                "wins": wins, "pairs": len(values), "verdict": result,
            })
        fails = [
            sum(r["failed"] for r in side) / max(1, sum(r["attempted"] for r in side))
            for side in zip(*pairs)
        ]
        rows.append({
            "workload": workload, "metric": "failed_frac", "unit": "ratio",
            "parent": (fails[0],) * 3, "change": (fails[1],) * 3,
            "wins": 0, "pairs": len(pairs),
            "verdict": "regressed" if fails[1] > fails[0] else "unchanged",
        })
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("parent", help="FILE or FILE:SET (the base)")
    parser.add_argument("change", help="FILE or FILE:SET")
    args = parser.parse_args(argv)
    metrics = json.loads(BENCHMARK.read_text())["end_to_end"]
    rows = compare(load_runs(args.parent), load_runs(args.change), metrics)
    print(f"{'workload':17s} {'metric':16s} {'parent median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s} {'ratio':>7s} {'won':>6s}  verdict")
    for row in rows:
        p1, pm, p3 = row["parent"]
        c1, cm, c3 = row["change"]
        ratio = cm / pm if pm else float("nan")
        print(
            f"{row['workload']:17s} {row['metric']:16s} "
            f"{pm:12.4f} [{p1:.4f}, {p3:.4f}] "
            f"{cm:12.4f} [{c1:.4f}, {c3:.4f}] "
            f"{ratio:7.3f} {row['wins']:>2d}/{row['pairs']:<3d}  "
            f"{row['verdict']}  (ratio change/parent; base {pm:.4g} "
            f"{row['unit']})"
        )
    return 1 if any(r["verdict"] == "regressed" for r in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
