"""Compare two ``repro.bench/3`` documents written by ``bench.py --out``.

::

    python3 perfbench/bench.py --out before.json      # parent commit
    python3 perfbench/bench.py --out after.json       # the change
    python3 perfbench/regress.py before.json after.json

Every (end-to-end metric, workload) pair is compared by median, against
the metric's bound in BENCHMARK.json.  Each row reads:

* ``improved`` -- every run of the change reads better than every run
  of the parent;
* ``unresolved`` -- otherwise, when the min-max spread of either side
  is wider than the bound, so the comparison cannot tell;
* ``regressed`` -- the median got worse by more than the bound;
* ``ok`` -- otherwise.

Any rise in ``failed_fraction`` and any drop in ``saved_insns`` fail
outright.  Per-layer deltas are printed but not gated.

Exit status: 1 when a row regressed or failed, 0 otherwise.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Any, Dict, List, Optional, Tuple

SCHEMA = "repro.bench/3"
BENCHMARK_JSON = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                              os.pardir, "BENCHMARK.json")


def load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        doc = json.load(handle)
    if doc.get("schema") != SCHEMA:
        sys.exit(f"error: {path}: expected schema {SCHEMA!r}, "
                 f"got {doc.get('schema')!r}")
    return doc


def _worse_by(base: float, current: float, better: str) -> float:
    """How much worse *current* is than *base*, as a share of *base*."""
    if base == 0:
        return 0.0 if current == base else float("inf")
    change = (current - base) / abs(base)
    return change if better == "lower" else -change


def _spread(row: Dict[str, Any]) -> float:
    median = row["median"]
    return (row["max"] - row["min"]) / abs(median) if median else 0.0


def _all_better(base: Dict[str, Any], current: Dict[str, Any],
                better: str) -> bool:
    if better == "lower":
        return max(current["samples"]) < min(base["samples"])
    return min(current["samples"]) > max(base["samples"])


def compare_metric(name: str, base: Dict[str, Any], current: Dict[str, Any],
                   better: str, bound: float) -> Tuple[str, float]:
    """``(status, worse_by)`` of one (metric, workload) pair."""
    worse = _worse_by(base["median"], current["median"], better)
    if name == "saved_insns" and current["median"] < base["median"]:
        return "failed", worse
    if _all_better(base, current, better):
        return "improved", worse
    if max(_spread(base), _spread(current)) > bound:
        return "unresolved", worse
    if worse > bound:
        return "regressed", worse
    return "ok", worse


def compare(baseline: Dict[str, Any], current: Dict[str, Any],
            benchmark: Dict[str, Any]) -> Tuple[List[str], bool]:
    """Report lines and whether the comparison failed."""
    lines: List[str] = []
    failed = False
    for workload, base in sorted(baseline["workloads"].items()):
        cur = current["workloads"].get(workload)
        if cur is None:
            lines.append(f"{workload}: missing from the current document")
            failed = True
            continue
        if cur["failed_fraction"] > base["failed_fraction"]:
            lines.append(f"{workload:<16} failed_fraction "
                         f"{base['failed_fraction']:.4g} -> "
                         f"{cur['failed_fraction']:.4g}  failed")
            failed = True
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            status, worse = compare_metric(
                name, base["end_to_end"][name], cur["end_to_end"][name],
                metric["better"], metric["bound"])
            failed |= status in ("failed", "regressed")
            lines.append(
                f"{workload:<16} {name:<16} "
                f"{base['end_to_end'][name]['median']:>12.6g} -> "
                f"{cur['end_to_end'][name]['median']:>12.6g} "
                f"{metric['unit']:<6} worse by {worse:+.2%} "
                f"(bound {metric['bound']:.0%})  {status}")
        for name, row in sorted(base["layers"].items()):
            after: Optional[float] = cur["layers"].get(name, {}).get("value")
            before = row["value"]
            if before is None or after is None:
                delta = "n/a"
            elif before:
                delta = f"{(after - before) / abs(before):+.2%}"
            else:
                delta = "+0" if after == before else "new"
            lines.append(f"{workload:<16}   layer {name:<30} "
                         f"{_fmt(before)} -> {_fmt(after)} ({delta})")
    return lines, failed


def _fmt(value: Optional[float]) -> str:
    return "null" if value is None else f"{value:.6g}"


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare two repro.bench/3 documents; exit 1 on a "
                    "regression")
    parser.add_argument("baseline", help="the parent commit's document")
    parser.add_argument("current", help="the change's document")
    args = parser.parse_args(argv)
    with open(BENCHMARK_JSON) as handle:
        benchmark = json.load(handle)
    lines, failed = compare(load(args.baseline), load(args.current),
                            benchmark)
    print("\n".join(lines))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
