"""Compare two ``repro.bench/1``/``/2`` JSON files with tolerance bands.

::

    PYTHONPATH=src python benchmarks/harness.py --bench-out fresh.json
    python benchmarks/regress.py BENCH_all.json fresh.json

The committed baseline (``BENCH_all.json``) pins the *result* metrics —
saved instructions, rounds, call/cross-jump mix, final instruction
count — which are deterministic for the baseline grid and must match
exactly; any drift is a correctness regression (or an intentional
change, in which case the baseline is regenerated and committed with
the code that moved it).  Wall-clock time is machine-dependent, so it
only gets a *tolerance band*: more than ``--time-tolerance`` (default
5%) slower than baseline prints a warning, escalated to a failure by
``--fail-on-time`` (for dedicated perf CI on stable hardware).

``repro.bench/2`` adds scale-engine observability fields to every
graph-engine cell (``shards``, ``cache_hits``,
``lattice_nodes_reused``).  They describe *how* a cell was mined, not
the result, so they are soft-compared: drift prints a warning, never a
failure.  A /1 file simply has no scale fields; comparisons across
versions skip them.

Exit status: 0 when every pinned metric matches (warnings allowed),
1 otherwise.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Any, Dict, List, Optional

SCHEMAS = ("repro.bench/1", "repro.bench/2")

#: Metrics pinned exactly; a mismatch fails the comparison.
RESULT_METRICS = (
    "saved", "rounds", "calls", "crossjumps", "instructions_after",
)

#: /2 observability fields: soft-compared (warn on drift, never fail).
SCALE_METRICS = (
    "shards", "cache_hits", "lattice_nodes_reused",
)


def _load(path: str) -> Dict[str, Any]:
    with open(path) as handle:
        doc = json.load(handle)
    schema = doc.get("schema")
    if schema not in SCHEMAS:
        sys.exit(f"error: {path}: expected schema one of {SCHEMAS}, "
                 f"got {schema!r}")
    return doc


def compare(baseline: Dict[str, Any], current: Dict[str, Any],
            time_tolerance: float = 0.05,
            fail_on_time: bool = False):
    """Return ``(failures, warnings)`` between two bench documents.

    Every workload/engine cell of the *baseline* must be present in
    *current* with identical result metrics; extra cells in *current*
    are ignored (they have no baseline to drift from).
    """
    failures: List[str] = []
    warnings: List[str] = []
    for name, base_entry in sorted(baseline["workloads"].items()):
        cur_entry = current["workloads"].get(name)
        if cur_entry is None:
            failures.append(f"{name}: workload missing from current run")
            continue
        if cur_entry.get("instructions") != base_entry.get("instructions"):
            failures.append(
                f"{name}: instruction count "
                f"{base_entry.get('instructions')} -> "
                f"{cur_entry.get('instructions')} (workload changed?)"
            )
        for engine, base_cell in sorted(base_entry["engines"].items()):
            cur_cell = cur_entry.get("engines", {}).get(engine)
            if cur_cell is None:
                failures.append(
                    f"{name}/{engine}: engine missing from current run"
                )
                continue
            for metric in RESULT_METRICS:
                base_value = base_cell.get(metric)
                cur_value = cur_cell.get(metric)
                if cur_value != base_value:
                    failures.append(
                        f"{name}/{engine}: {metric} changed "
                        f"{base_value} -> {cur_value}"
                    )
            for metric in SCALE_METRICS:
                base_value = base_cell.get(metric)
                cur_value = cur_cell.get(metric)
                if base_value is None or cur_value is None:
                    continue       # /1 file on one side: nothing to drift
                if cur_value != base_value:
                    warnings.append(
                        f"{name}/{engine}: {metric} drifted "
                        f"{base_value} -> {cur_value}"
                    )
            base_secs = base_cell.get("seconds")
            cur_secs = cur_cell.get("seconds")
            if base_secs and cur_secs is not None:
                limit = base_secs * (1.0 + time_tolerance)
                if cur_secs > limit:
                    message = (
                        f"{name}/{engine}: {cur_secs:.3f}s is "
                        f"{cur_secs / base_secs - 1.0:+.1%} vs baseline "
                        f"{base_secs:.3f}s "
                        f"(tolerance {time_tolerance:.0%})"
                    )
                    if fail_on_time:
                        failures.append(message)
                    else:
                        warnings.append(message)
    return failures, warnings


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="compare two repro.bench/1 or /2 files; exit 1 "
                    "when a pinned result metric drifted",
    )
    parser.add_argument("baseline", help="committed baseline JSON")
    parser.add_argument("current", help="freshly produced JSON")
    parser.add_argument(
        "--time-tolerance", type=float, default=0.05, metavar="FRAC",
        help="allowed wall-clock slowdown before warning (default 0.05)",
    )
    parser.add_argument(
        "--fail-on-time", action="store_true",
        help="escalate wall-clock warnings to failures",
    )
    args = parser.parse_args(argv)
    failures, warnings = compare(
        _load(args.baseline), _load(args.current),
        time_tolerance=args.time_tolerance,
        fail_on_time=args.fail_on_time,
    )
    for message in warnings:
        print(f"WARN {message}", file=sys.stderr)
    for message in failures:
        print(f"FAIL {message}", file=sys.stderr)
    if failures:
        print(f"{len(failures)} regression(s) vs {args.baseline}",
              file=sys.stderr)
        return 1
    print(f"ok: {args.current} matches {args.baseline}"
          + (f" ({len(warnings)} timing warning(s))" if warnings else ""),
          file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
