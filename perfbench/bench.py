"""Layer-resolved performance benchmark for procedural abstraction.

One run abstracts a workload's programs over and over for ``--seconds``
seconds and prints, as the last line of standard output, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``::

    python3 perfbench/bench.py --workload sha-deep --seed 1 --seconds 20 --trace 0

With ``--trace 0`` the metrics are the end-to-end ones, measured with
tracing off.  With ``--trace 1`` they are the per-layer ones: every
program is abstracted once untraced and once with the layer tracer
(:mod:`tracer`) installed, and the difference is the tracing overhead.

Without ``--workload`` the script runs the full set: every workload
``REPEATS`` times untraced and once traced, each run in its own
process.  It prints a summary table and, with ``--out``, writes the
``repro.bench/3`` document that ``perfbench/regress.py`` compares.

The load is a closed loop with one client: each program is abstracted
after the previous one finishes, in a single process.  Every output is
checked.  The abstracted build is simulated, and its output and exit
code are compared with an oracle that does not involve PA.  Every
repeat of a program must also produce the same module, byte for byte.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.normpath(os.path.join(HERE, os.pardir, "src"))
sys.path.insert(0, SRC)

try:
    # The traced entry points are called through their modules, so
    # that the tracer's replacements are the functions called.
    from repro.binary.layout import layout
    from repro.binary.program import Module
    from repro.minicc import driver as minicc
    from repro.pa import driver, sfx
    from repro.pa.driver import PAConfig, PAResult
    from repro.sim import machine
    from repro.sim.machine import RunResult
    from repro.variance.genprog import generate_source, sized_config
    from repro.workloads import PROGRAMS
except ImportError as exc:
    sys.exit(f"error: cannot import the repro package from {SRC}: {exc}")

from tracer import Entry, Layer, LayerStats, Tracer, missing_entries  # noqa: E402

SCHEMA = "repro.bench/3"
#: Untraced runs per workload in a full set; the traced run is extra.
REPEATS = 3
DEFAULT_SECONDS = 20
#: Fresh-process set-ups timed per untraced run; ``setup_s`` is their
#: median.
SETUP_PROBES = 9
#: Generated programs are dyn-budget capped far below this.
MAX_STEPS = 50_000_000
#: What :func:`calibrate` takes on an idle 2.1 GHz Xeon core, the
#: speed ``pa_s`` is rescaled to.
CALIBRATION_REFERENCE_S = 0.025


@dataclass(frozen=True)
class Workload:
    """A named set of programs and the engine that abstracts them.

    The programs are fixed inputs.  ``--seed`` only orders each pass
    over them: programs drawn by the seed would differ in cost by 2x
    (generated programs of one size take 1.6-3.5 s), far more than the
    bounds the benchmark gates on.
    """

    name: str
    #: ``"sfx"`` or a ``PAConfig.miner`` value
    engine: str
    mibench: Tuple[str, ...] = ()
    #: generated programs, as ``(genprog seed, target instructions)``
    genprog: Tuple[Tuple[int, int], ...] = ()
    #: ``PAConfig`` fields other than ``miner``
    options: Tuple[Tuple[str, Any], ...] = ()


#: Why each workload was chosen is recorded in BENCHMARK.json and
#: perfbench/README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    # At the default max_nodes of 8 one PA run of sha takes ~35 s,
    # longer than a whole benchmark run; at 5 it takes ~5 s.
    Workload("sha-deep", "edgar", mibench=("sha",),
             options=(("max_nodes", 5),)),
    Workload("sfx-suite", "sfx", mibench=tuple(PROGRAMS)),
    # Two ~700-instruction programs of 5 rounds each, ~2.3 s apiece:
    # short enough for several samples a run.  One 900-instruction
    # program takes 15 s.
    Workload("genprog-rounds", "edgar", genprog=((1, 300), (3, 300))),
    Workload("mibench-small", "edgar",
             mibench=("crc", "dijkstra", "patricia", "qsort", "search")),
)}

#: End-to-end metrics: name -> (unit, better).  Their bounds live in
#: BENCHMARK.json.
END_TO_END: Dict[str, Tuple[str, str]] = {
    "pa_s": ("s", "lower"),
    "saved_insns": ("insns", "higher"),
    "dyn_insns_ratio": ("ratio", "lower"),
    "peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}


def _legal(result: Any) -> int:
    method, kept = result
    return int(method is not None and len(kept) >= 2)


def _dfg_nodes(result: Any) -> int:
    return sum(dfg.num_nodes for dfg in result)


def _steps(result: Any) -> int:
    return int(result.steps)


#: Layers traced around the PA call.  Names are repo modules.
PA_LAYERS: Tuple[Layer, ...] = (
    Layer("mining.canonical",
          (Entry("repro.mining.dfs_code:is_min", bool),),
          extra=("accept_ratio", "ratio", "higher")),
    Layer("mining.prune",
          (Entry("repro.mining.pruning:never_convex_within", bool),
           Entry("repro.mining.pruning:is_permanently_illegal", bool)),
          extra=("drop_ratio", "ratio", "higher")),
    Layer("mining.search", (Entry("repro.mining.gspan:DgSpan.mine"),),
          report_calls=False),
    # the one non-public boundary: DgSpan's rightmost-path extension
    Layer("mining.extend", (Entry("repro.mining.gspan:DgSpan._extensions"),)),
    Layer("mining.overlap",
          (Entry("repro.mining.edgar:non_overlapping_embeddings"),
           Entry("repro.mining.collision:build_collision_graph"),
           Entry("repro.mining.mis:max_independent_set"))),
    Layer("verify.absint",
          (Entry("repro.verify.absint:module_summaries"),)),
    Layer("pa.legality",
          (Entry("repro.pa.legality:legal_embeddings", _legal),
           Entry("repro.pa.legality:classify_fragment"),
           Entry("repro.pa.extract:call_site_feasible")),
          extra=("pass_ratio", "ratio", "higher")),
    Layer("pa.order", (Entry("repro.pa.extract:order_consistent_subset"),)),
    Layer("pa.extract",
          (Entry("repro.pa.extract:extract_call"),
           Entry("repro.pa.extract:extract_crossjump"))),
    Layer("dfg",
          (Entry("repro.dfg.builder:build_dfgs", _dfg_nodes),
           Entry("repro.dfg.builder:build_dfg")),
          extra=("nodes", "count", "lower")),
    Layer("pa.liveness", (Entry("repro.pa.liveness:lr_live_out_blocks"),)),
    Layer("pa.sfx", (Entry("repro.pa.sfx:run_sfx"),), report_calls=False),
    Layer("pa.driver", (Entry("repro.pa.driver:run_pa"),),
          report_calls=False),
    Layer("scale",
          (Entry("repro.scale.cluster:cluster_dfgs"),
           Entry("repro.scale.shard:ShardPayload.digest"),
           Entry("repro.scale.cache:FragmentCache.get"),
           Entry("repro.scale.cache:FragmentCache.put"),
           Entry("repro.scale.shard:revive_candidates")),
          report_calls=False),
)
#: Traced around the per-unit compile, outside ``pa_s``.
COMPILE_LAYERS = (
    Layer("minicc", (Entry("repro.minicc.driver:compile_to_module"),),
          report_calls=False),
)
#: Traced around the oracle's simulation of the abstracted build.
SIM_LAYERS = (
    Layer("sim", (Entry("repro.sim.machine:run_image", _steps),),
          extra=("steps", "count", "lower"), report_calls=False),
)
LAYERS = PA_LAYERS + COMPILE_LAYERS + SIM_LAYERS

#: Per-layer counts read off ``PAResult``: name -> (getter, better).
RESULT_COUNTS: Dict[str, Tuple[Callable[[PAResult], int], str]] = {
    "mining.lattice_nodes": (lambda r: r.lattice_nodes, "lower"),
    "pa.rounds": (lambda r: r.rounds, "lower"),
    "pa.extractions": (lambda r: len(r.records), "higher"),
    "scale.cache_hits": (lambda r: r.cache_hits, "higher"),
}


def _layer_names(layer: Layer) -> Dict[str, Tuple[str, str]]:
    names = {f"{layer.name}.self_s": ("s", "lower")}
    if layer.report_calls:
        names[f"{layer.name}.calls"] = ("count", "lower")
    if layer.extra is not None:
        suffix, kind, better = layer.extra
        names[f"{layer.name}.{suffix}"] = (kind, better)
    return names


def layer_metrics() -> Dict[str, Tuple[str, str]]:
    """Every per-layer metric: name -> (unit, better)."""
    metrics: Dict[str, Tuple[str, str]] = {}
    for layer in LAYERS:
        metrics.update(_layer_names(layer))
    for name, (_, better) in RESULT_COUNTS.items():
        metrics[name] = ("count", better)
    metrics["trace_overhead"] = ("ratio", "lower")
    return metrics


# ----------------------------------------------------------------------
# inputs and the oracle
# ----------------------------------------------------------------------
@dataclass
class Program:
    name: str
    source: str
    module: Module
    #: the Python reference ``(output, exit code)``; None for generated
    #: programs, whose oracle is the simulated unabstracted build
    expected: Optional[Tuple[str, int]]
    #: the unabstracted build's run (set by :func:`measure`)
    reference: Optional[RunResult] = None


def prepare(workload: Workload) -> List[Program]:
    """Generate and compile the workload's programs: the set-up."""
    sources = [
        (name, PROGRAMS[name].source,
         (PROGRAMS[name].expected_output(), PROGRAMS[name].expected_exit))
        for name in workload.mibench
    ] + [
        (f"genprog-{seed}-{size}",
         generate_source(sized_config(seed, size)), None)
        for seed, size in workload.genprog
    ]
    return [Program(name, source, minicc.compile_to_module(source), expected)
            for name, source, expected in sources]


def simulate(module: Module) -> RunResult:
    return machine.run_image(layout(module), max_steps=MAX_STEPS)


def oracle_mismatch(program: Program, run: RunResult) -> str:
    """Why *run* is not the program's reference behaviour ('' if it is)."""
    if program.expected is not None:
        output, exit_code = program.expected
    else:
        assert program.reference is not None
        output = program.reference.output_text
        exit_code = program.reference.exit_code
    if run.output_text != output:
        return "output differs from the oracle"
    if run.exit_code != exit_code:
        return f"exit code {run.exit_code} != {exit_code}"
    return ""


def abstract(workload: Workload, module: Module) -> PAResult:
    """Run the workload's engine on *module*, in place."""
    if workload.engine == "sfx":
        return sfx.run_sfx(module)
    return driver.run_pa(module, PAConfig(miner=workload.engine,
                                          **dict(workload.options)))


# ----------------------------------------------------------------------
# one run
# ----------------------------------------------------------------------
def calibrate() -> float:
    """Seconds a fixed pure-Python loop takes now: the machine's speed.

    On a shared machine, the same PA run takes 10-20 % longer while
    neighbours are busy.  The loop runs no repro code, so no change to
    the package moves it, and ``pa_s`` divided by it is steady.  It
    makes no cycles; the collector is off so that the heap PA left
    behind does not slow it.
    """
    gc.disable()
    try:
        started = time.perf_counter()
        table: Dict[Tuple[int, int], int] = {}
        total = 0
        for i in range(60_000):
            key = (i & 255, i % 7)
            table[key] = table.get(key, 0) + 1
            items = [i, i ^ 5, i % 13]
            items.sort()
            total += items[0] + len(str(i))
        return time.perf_counter() - started
    finally:
        gc.enable()


@dataclass
class Sample:
    """One abstraction of one program."""

    program: str
    traced: bool
    steps_before: int
    pa_s: float = 0.0
    #: :func:`calibrate` just before and just after the PA call
    calibration: Tuple[float, ...] = ()
    error: str = ""
    saved: int = 0
    steps: int = 0
    digest: str = ""
    #: :data:`RESULT_COUNTS` of the run; None where the getter failed
    counts: Dict[str, Optional[int]] = field(default_factory=dict)
    layers: Dict[str, LayerStats] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.error


def run_unit(workload: Workload, program: Program, traced: bool) -> Sample:
    """Compile, abstract and check *program* once."""
    assert program.reference is not None
    sample = Sample(program.name, traced, program.reference.steps)
    tracers = [Tracer(layers) if traced else None
               for layers in (COMPILE_LAYERS, PA_LAYERS, SIM_LAYERS)]
    compile_tracer, pa_tracer, sim_tracer = tracers
    try:
        with compile_tracer or nullcontext():
            module = minicc.compile_to_module(program.source)
        before = calibrate()
        gc.collect()
        with pa_tracer or nullcontext():
            started = time.perf_counter()
            result = abstract(workload, module)
            sample.pa_s = time.perf_counter() - started
        sample.calibration = (before, calibrate())
        sample.saved = result.saved
        sample.counts = _result_counts(result)
        sample.digest = hashlib.sha256(module.render().encode()).hexdigest()
        with sim_tracer or nullcontext():
            run = simulate(module)
        sample.steps = run.steps
        if result.degraded:
            sample.error = "degraded: " + ", ".join(result.degraded_reasons)
        else:
            sample.error = oracle_mismatch(program, run)
    except Exception as exc:  # a failed unit is counted, not fatal
        sample.error = f"{type(exc).__name__}: {exc}"
        traceback.print_exc(file=sys.stderr)
    for tracer in tracers:
        if tracer is not None:
            sample.layers.update(tracer.stats)
    return sample


def _result_counts(result: PAResult) -> Dict[str, Optional[int]]:
    counts: Dict[str, Optional[int]] = {}
    for name, (getter, _) in RESULT_COUNTS.items():
        try:
            counts[name] = getter(result)
        except AttributeError:
            counts[name] = None
    return counts


def measure(workload: Workload, seed: int, seconds: float, trace: bool,
            probes: int = 0) -> Tuple[List[Sample], List[float]]:
    """Abstract the workload's programs for *seconds* seconds.

    Each pass visits every program once, in an order drawn from *seed*;
    the first pass always completes.  In a traced run every visit
    abstracts the program twice, untraced and traced, alternating which
    goes first so that drift cancels.

    Also returns *probes* :func:`setup_seconds` timings, taken one before
    each visit (and the rest at the end) so that one slow stretch of
    the machine does not skew them all; their time does not count
    against *seconds*.
    """
    programs = prepare(workload)
    for program in programs:
        program.reference = simulate(program.module)
    rng = random.Random(f"{workload.name}:{seed}")
    modes = (False, True) if trace else (False,)
    samples: List[Sample] = []
    setups: List[float] = []
    deadline = time.perf_counter() + seconds
    pass_index = 0
    while pass_index == 0 or time.perf_counter() < deadline:
        order = list(programs)
        rng.shuffle(order)
        for program in order:
            if pass_index and time.perf_counter() >= deadline:
                break
            if len(setups) < probes:
                setups.append(setup_seconds(workload))
                deadline += setups[-1]
            for traced in modes[::-1] if pass_index % 2 else modes:
                samples.append(run_unit(workload, program, traced))
        pass_index += 1
    while len(setups) < probes:
        setups.append(setup_seconds(workload))
    _check_repeatable(samples)
    return samples, setups


def _check_repeatable(samples: List[Sample]) -> None:
    """Fail every sample whose module differs from its program's first."""
    first: Dict[str, str] = {}
    for sample in samples:
        if not sample.ok:
            continue
        if sample.digest != first.setdefault(sample.program, sample.digest):
            sample.error = "output differs between repeats of one program"


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def _per_program(samples: Sequence[Sample], traced: bool
                 ) -> Dict[str, List[Sample]]:
    grouped: Dict[str, List[Sample]] = {}
    for sample in samples:
        if sample.ok and sample.traced == traced:
            grouped.setdefault(sample.program, []).append(sample)
    return grouped


def _pass_seconds(samples: Sequence[Sample], traced: bool) -> float:
    """One pass over the programs: the sum of per-program medians."""
    return sum(
        statistics.median(s.pa_s for s in group)
        for group in _per_program(samples, traced).values()
    )


def machine_speed(samples: Sequence[Sample]) -> float:
    """The run's median :func:`calibrate` time (the reference if no
    unit got as far as the PA call)."""
    times = [c for sample in samples for c in sample.calibration]
    return statistics.median(times) if times else CALIBRATION_REFERENCE_S


def end_to_end(samples: Sequence[Sample], setup_seconds: Sequence[float],
               peak_rss_mb: float) -> Dict[str, float]:
    """The end-to-end metrics of one untraced run.

    ``pa_s`` is rescaled from this run's machine speed to the reference
    speed, :data:`CALIBRATION_REFERENCE_S`.
    """
    firsts = [group[0] for group in _per_program(samples, False).values()]
    before = sum(s.steps_before for s in firsts)
    return {
        "pa_s": _pass_seconds(samples, False)
        * CALIBRATION_REFERENCE_S / machine_speed(samples),
        "saved_insns": sum(s.saved for s in firsts),
        "dyn_insns_ratio":
            sum(s.steps for s in firsts) / before if before else 0.0,
        "peak_rss_mb": peak_rss_mb,
        "setup_s": statistics.median(setup_seconds),
    }


def per_layer(samples: Sequence[Sample]
              ) -> Tuple[Dict[str, Optional[float]], List[str]]:
    """Per-layer metrics of one traced run, per pass, and warnings.

    Times are each program's mean over its traced samples, summed over
    the programs.  Counts repeat exactly, so their mean is the count.
    A layer with an entry point that no longer exists reads ``null``.
    """
    groups = list(_per_program(samples, True).values())
    warnings: List[str] = []
    values: Dict[str, Optional[float]] = {}
    for layer in LAYERS:
        names = _layer_names(layer)
        missing = missing_entries(layer)
        if missing:
            warnings.append(f"layer {layer.name}: entry point(s) "
                            f"{', '.join(missing)} not found; "
                            "reporting null")
            values.update(dict.fromkeys(names))
            continue
        total = LayerStats()
        for group in groups:
            stats = [sample.layers[layer.name] for sample in group]
            total.self_s += sum(s.self_s for s in stats) / len(stats)
            total.calls += stats[0].calls
            total.judged += stats[0].judged
            total.counted += stats[0].counted
        values[f"{layer.name}.self_s"] = total.self_s
        if layer.report_calls:
            values[f"{layer.name}.calls"] = total.calls
        if layer.extra is not None:
            suffix, kind, _ = layer.extra
            if kind == "count":
                values[f"{layer.name}.{suffix}"] = total.counted
            else:
                values[f"{layer.name}.{suffix}"] = (
                    total.counted / total.judged if total.judged else 0.0)
    for name in RESULT_COUNTS:
        counts = [group[0].counts[name] for group in groups]
        if None in counts:
            warnings.append(f"{name}: not found on PAResult; reporting null")
            values[name] = None
        else:
            values[name] = sum(counts)
    untraced = _pass_seconds(samples, False)
    values["trace_overhead"] = (
        _pass_seconds(samples, True) / untraced - 1.0 if untraced else 0.0)
    return values, warnings


# ----------------------------------------------------------------------
# set-up time, measured in fresh processes
# ----------------------------------------------------------------------
def setup_seconds(workload: Workload) -> float:
    """Seconds from starting a fresh interpreter until the workload's
    programs are generated and compiled, imports included."""
    code = (f"import sys; sys.path.insert(0, {HERE!r}); import bench; "
            f"bench.prepare(bench.{workload!r}); "
            "print('ready', flush=True)")
    started = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", code],
                          stdout=subprocess.PIPE) as probe:
        assert probe.stdout is not None
        line = probe.stdout.readline()
        elapsed = time.perf_counter() - started
        probe.stdout.read()
    if probe.returncode != 0 or line.strip() != b"ready":
        raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
    return elapsed


# ----------------------------------------------------------------------
# one run, and the full set
# ----------------------------------------------------------------------
def run(workload: Workload, seed: int, seconds: float,
        trace: bool) -> Dict[str, Any]:
    """One run: ``{"result": <the JSON result line>, "detail": ...}``."""
    samples, setups = measure(workload, seed, seconds, trace,
                              probes=0 if trace else SETUP_PROBES)
    warnings: List[str] = []
    if trace:
        values, warnings = per_layer(samples)
        units = layer_metrics()
    else:
        peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values = end_to_end(samples, setups, peak)
        units = END_TO_END
    for warning in warnings:
        print(f"warning: {warning}", file=sys.stderr)
    failures = [s for s in samples if not s.ok]
    for sample in failures:
        print(f"FAILED {workload.name}/{sample.program}: {sample.error}",
              file=sys.stderr)
    result = {
        "correct": not failures,
        "attempted": len(samples),
        "failed": len(failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, (unit, _) in units.items()},
    }
    detail = {
        "workload": workload.name,
        "seed": seed,
        "trace": trace,
        "setup_s": setups,
        "calibration_s": machine_speed(samples),
        "warnings": warnings,
        "samples": [
            {"program": s.program, "traced": s.traced, "pa_s": s.pa_s,
             "calibration": s.calibration,
             "saved": s.saved, "steps": s.steps, "error": s.error}
            for s in samples
        ],
    }
    return {"result": result, "detail": detail}


def _spawn_run(name: str, seed: int, seconds: float,
               trace: bool) -> Dict[str, Any]:
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(int(trace))]
    completed = subprocess.run(command, stdout=subprocess.PIPE, check=True)
    *_, detail, result = completed.stdout.decode().splitlines()
    return {"detail": json.loads(detail)["detail"],
            "result": json.loads(result)}


def _summary(values: Sequence[float]) -> Dict[str, Any]:
    return {"samples": list(values), "median": statistics.median(values),
            "min": min(values), "max": max(values), "n": len(values)}


def build_document(runs: Dict[str, Dict[str, Any]], seed: int,
                   seconds: float) -> Dict[str, Any]:
    """The ``repro.bench/3`` document of a full set.

    *runs* maps a workload name to ``{"untraced": [...], "traced":
    ...}``: a list of untraced :func:`run` outputs and one traced one.
    """
    doc: Dict[str, Any] = {
        "schema": SCHEMA,
        "seed": seed,
        "seconds": seconds,
        "repeats": REPEATS,
        "host": {"python": platform.python_version(),
                 "machine": platform.machine(),
                 "cpus": os.cpu_count()},
        "workloads": {},
    }
    for name, sides in runs.items():
        untraced = [r["result"] for r in sides["untraced"]]
        traced = sides["traced"]["result"]
        attempted = sum(r["attempted"] for r in untraced + [traced])
        failed = sum(r["failed"] for r in untraced + [traced])
        doc["workloads"][name] = {
            "attempted": attempted,
            "failed": failed,
            "failed_fraction": failed / attempted,
            "end_to_end": {
                metric: dict(unit=unit, better=better, **_summary(
                    [r["metrics"][metric]["value"] for r in untraced]))
                for metric, (unit, better) in END_TO_END.items()
            },
            "layers": {
                metric: {"unit": unit, "better": better,
                         "value": traced["metrics"][metric]["value"]}
                for metric, (unit, better) in layer_metrics().items()
            },
            "warnings": sides["traced"]["detail"]["warnings"],
            "runs": [r["detail"]
                     for r in sides["untraced"] + [sides["traced"]]],
        }
    return doc


def _print_table(doc: Dict[str, Any]) -> None:
    for name, entry in doc["workloads"].items():
        print(f"{name}  (failed {entry['failed']}/{entry['attempted']})")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:<30} {row['median']:>12.6g} {row['unit']:<6}"
                  f" min {row['min']:.6g}  max {row['max']:.6g}"
                  f"  n={row['n']}")
        for metric, row in entry["layers"].items():
            value = "null" if row["value"] is None else f"{row['value']:.6g}"
            print(f"  {metric:<30} {value:>12} {row['unit']}")


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS),
                        help="run one workload once (default: the full "
                             "set, every workload)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", metavar="FILE",
                        help="full set: write the repro.bench/3 document")
    args = parser.parse_args(argv)
    if args.workload is not None:
        outcome = run(WORKLOADS[args.workload], args.seed, args.seconds,
                      bool(args.trace))
        print(json.dumps({"detail": outcome["detail"]}))
        print(json.dumps(outcome["result"]))
        return 0
    runs = {}
    for name in WORKLOADS:
        print(f"running {name}", file=sys.stderr)
        runs[name] = {
            "untraced": [_spawn_run(name, args.seed, args.seconds, False)
                         for _ in range(REPEATS)],
            "traced": _spawn_run(name, args.seed, args.seconds, True),
        }
    doc = build_document(runs, args.seed, args.seconds)
    _print_table(doc)
    if args.out:
        with open(args.out, "w") as handle:
            json.dump(doc, handle, indent=1, sort_keys=True)
            handle.write("\n")
    return 0 if all(e["failed"] == 0 for e in doc["workloads"].values()) \
        else 1


if __name__ == "__main__":
    sys.exit(main())
