"""Shared harness for the benchmark suite.

Running the three abstraction engines over all eight workloads is the
expensive part of every table/figure; this module computes it once per
process and caches the outcome, so individual benchmarks only pay for
the unit they actually measure.

Every engine run is verified against the workload's Python reference —
a benchmark row is only reported for *correct* transformations.

Run as a script, the harness writes a schema-versioned benchmark JSON
(``repro.bench/2``) for regression tracking::

    PYTHONPATH=src python benchmarks/harness.py --bench-out BENCH_all.json

``benchmarks/regress.py`` compares two such files with tolerance bands
(it reads both ``repro.bench/1`` and ``/2``; /2 adds the scale-engine
observability fields ``shards``/``cache_hits``/
``lattice_nodes_reused`` to every graph-engine cell).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

if __package__ in (None, ""):
    # executed as a script: make src/ importable without PYTHONPATH
    sys.path.insert(
        0,
        os.path.join(os.path.dirname(os.path.abspath(__file__)),
                     os.pardir, "src"),
    )

from repro import telemetry
from repro.analysis.tables import Table1Row
from repro.dfg.builder import build_dfgs
from repro.dfg.graph import FLOW_KINDS
from repro.pa.driver import PAConfig, PAResult, run_pa
from repro.pa.sfx import SFXConfig, run_sfx
from repro.resilience.atomicio import atomic_write_text
from repro.telemetry.events import emit
from repro.workloads import PROGRAMS, compile_workload, verify_workload

#: Engine configurations used for the headline comparison.
ENGINES = ("sfx", "dgspan", "edgar")

#: Version tag of the ``--bench-out`` JSON schema.  /2 is an additive
#: minor over /1: graph-engine cells gain the scale observability
#: fields (shards, cache_hits, lattice_nodes_reused).
BENCH_SCHEMA = "repro.bench/2"

#: Default grid for the committed regression baseline (BENCH_all.json):
#: every bundled workload.  DgSpan is excluded: it exhausts its time
#: budget on the larger workloads, so its savings depend on wall-clock
#: speed — exactly what a regression baseline must not do.  sfx and
#: edgar terminate deterministically.
BASELINE_WORKLOADS = (
    "bitcnts", "crc", "dijkstra", "patricia", "qsort", "rijndael",
    "search", "sha",
)
BASELINE_ENGINES = ("sfx", "edgar")

#: Cells whose edgar run hits the wall-clock budget instead of
#: converging (so their savings would flap across hosts).  Historically
#: {("bitcnts", "edgar"), ("rijndael", "edgar")} — the sharded scale
#: engine made both converge well under the 180 s budget, so the set
#: is empty and the committed baseline covers the full grid.
BASELINE_SKIP = frozenset()


@dataclass
class EngineRun:
    saved: int
    rounds: int
    calls: int
    crossjumps: int
    seconds: float
    lattice_nodes: int


@dataclass
class SuiteResults:
    """All engine runs over all workloads."""

    instructions: Dict[str, int] = field(default_factory=dict)
    runs: Dict[Tuple[str, str], EngineRun] = field(default_factory=dict)

    def table1_rows(self) -> List[Table1Row]:
        return [
            Table1Row(
                program=name,
                instructions=self.instructions[name],
                sfx=self.runs[(name, "sfx")].saved,
                dgspan=self.runs[(name, "dgspan")].saved,
                edgar=self.runs[(name, "edgar")].saved,
            )
            for name in PROGRAMS
        ]

    def totals(self) -> Dict[str, int]:
        return {
            engine: sum(
                self.runs[(name, engine)].saved for name in PROGRAMS
            )
            for engine in ENGINES
        }

    def mechanisms(self) -> Dict[str, Tuple[int, int]]:
        out = {}
        for engine in ENGINES:
            calls = sum(self.runs[(n, engine)].calls for n in PROGRAMS)
            xjumps = sum(self.runs[(n, engine)].crossjumps for n in PROGRAMS)
            out[engine] = (calls, xjumps)
        return out


def run_engine(name: str, engine: str, **overrides) -> Tuple[PAResult, float]:
    """Run one engine on one workload, verified; returns (result, secs).

    The run is wrapped in a ``bench.engine_run`` telemetry span and its
    headline numbers are emitted as a ``bench.engine_run`` event, so a
    profiled benchmark session exports through the same registry as the
    CLI.
    """
    import time

    module = compile_workload(name)
    started = time.perf_counter()
    with telemetry.span("bench.engine_run", workload=name, engine=engine):
        if engine == "sfx":
            result = run_sfx(module, SFXConfig(**overrides)
                             if overrides else None)
        else:
            overrides.setdefault("time_budget", 180.0)
            result = run_pa(module, PAConfig(miner=engine, **overrides))
    elapsed = time.perf_counter() - started
    verify_workload(name, module)
    telemetry.count("bench.engine_runs")
    emit(
        "bench.engine_run",
        workload=name,
        engine=engine,
        saved=result.saved,
        rounds=result.rounds,
        seconds=elapsed,
        lattice_nodes=result.lattice_nodes,
    )
    return result, elapsed


@functools.lru_cache(maxsize=1)
def suite_results() -> SuiteResults:
    """The full (verified) engine x workload grid, computed once."""
    results = SuiteResults()
    for name in PROGRAMS:
        results.instructions[name] = compile_workload(name).num_instructions
        for engine in ENGINES:
            result, elapsed = run_engine(name, engine)
            results.runs[(name, engine)] = EngineRun(
                saved=result.saved,
                rounds=result.rounds,
                calls=result.call_extractions,
                crossjumps=result.crossjump_extractions,
                seconds=elapsed,
                lattice_nodes=result.lattice_nodes,
            )
    return results


@functools.lru_cache(maxsize=None)
def workload_dfgs(name: str, flow_only: bool = False):
    """DFG database of one workload (for the shape tables)."""
    module = compile_workload(name)
    kinds = FLOW_KINDS if flow_only else None
    if kinds is None:
        return build_dfgs(module, min_nodes=1)
    return build_dfgs(module, min_nodes=1, mined_kinds=kinds)


# ----------------------------------------------------------------------
# benchmark JSON (--bench-out) for regression tracking
# ----------------------------------------------------------------------
def bench_results(workloads=BASELINE_WORKLOADS,
                  engines=BASELINE_ENGINES,
                  **overrides) -> Dict:
    """The verified engine grid as a ``repro.bench/2`` document."""
    doc: Dict = {"schema": BENCH_SCHEMA, "workloads": {}}
    for name in workloads:
        entry: Dict = {
            "instructions": compile_workload(name).num_instructions,
            "engines": {},
        }
        for engine in engines:
            if (name, engine) in BASELINE_SKIP:
                continue
            # sfx is the sequence baseline; PAConfig knobs like
            # time_budget do not apply to it
            per_engine = {} if engine == "sfx" else overrides
            result, elapsed = run_engine(name, engine, **per_engine)
            entry["engines"][engine] = {
                "saved": result.saved,
                "rounds": result.rounds,
                "calls": result.call_extractions,
                "crossjumps": result.crossjump_extractions,
                "instructions_after": result.instructions_after,
                "seconds": round(elapsed, 3),
                "lattice_nodes": result.lattice_nodes,
                "shards": getattr(result, "shards", 0),
                "cache_hits": getattr(result, "cache_hits", 0),
                "lattice_nodes_reused": getattr(
                    result, "lattice_nodes_reused", 0),
            }
            print(f"  {name}/{engine}: saved {result.saved} "
                  f"in {result.rounds} rounds ({elapsed:.1f}s)",
                  file=sys.stderr)
        doc["workloads"][name] = entry
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="run the verified benchmark grid and write "
                    "a repro.bench/2 JSON for benchmarks/regress.py",
    )
    parser.add_argument(
        "--bench-out", metavar="FILE", required=True,
        help="output path (e.g. BENCH_all.json)",
    )
    parser.add_argument(
        "--workloads", nargs="+", default=list(BASELINE_WORKLOADS),
        choices=sorted(PROGRAMS),
    )
    parser.add_argument(
        "--engines", nargs="+", default=list(BASELINE_ENGINES),
        choices=ENGINES,
    )
    parser.add_argument("--time-budget", type=float, default=180.0)
    parser.add_argument("--force", action="store_true",
                        help="overwrite an existing output file")
    args = parser.parse_args(argv)
    if os.path.exists(args.bench_out) and not args.force:
        parser.error(
            f"refusing to overwrite {args.bench_out} (use --force)"
        )
    doc = bench_results(tuple(args.workloads), tuple(args.engines),
                        time_budget=args.time_budget)
    atomic_write_text(
        args.bench_out,
        json.dumps(doc, indent=2, sort_keys=True) + "\n",
    )
    print(f"wrote {args.bench_out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
