"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``compile``   mini-C source -> assembly listing
``run``       compile (or assemble) and execute on the simulator
``pa``        run procedural abstraction on a program and report savings
``audit``     abstract-interpretation audit: per-function stack/value
              invariants and proven site-level events (exit 1 on a
              miscompile-class fact; ``--json`` emits schema
              ``repro.verify.audit/1``)
``lint``      check a program against the module invariants (exit 1 on
              error findings; ``--json`` for the CI-consumable report,
              schema ``repro.verify.lint/2``)
``table1``    regenerate the paper's Table 1 on the bundled workloads
``stats``     DFG fan statistics for a program (Tables 2/3 style)
``profile``   run a workload under telemetry and print the phase tree
``explain``   narrate one abstraction round from the decision ledger
``variance``  differential robustness sweep over perturbed compiler
              variants (schema ``repro.variance/1``); ``--fuzz-seed``
              swaps the workload for a generated mini-C program

``pa --verify`` translation-validates every extraction round (re-lint +
symbolic block equivalence, see :mod:`repro.verify.validate`) and exits
with code 2 when a round cannot be proven equivalent; the counterexample
lands in the decision ledger (``--ledger-out``).

``pa --sanitize`` (also ``variance --sanitize``) runs the before/after
simulations under the stack sanitizer (:mod:`repro.sim.sanitize`) —
shadow call stack, saved-lr protection, stack-init tracking — and exits
2 (``pa``) / fails the variant oracle (``variance``) when the
abstracted program trips finding kinds its original does not.  The
sanitizer is a passive observer: sanitized runs are bit-identical to
plain ones, so the flag is free until a counterexample fires.

``pa``, ``table1`` and ``profile`` accept ``--trace-out FILE`` (Chrome
``trace_event`` JSON, viewable in ``chrome://tracing`` / Perfetto) and
``--stats-out FILE`` (flat stats JSON, schema
``repro.telemetry.stats/3``: counters, histogram and span summaries,
the ``round.end`` / ``extraction`` / ``shard.done`` events).
``table1 --json FILE`` writes the same stats schema with one
``table1.row`` event per workload/engine cell.
Output options refuse to overwrite existing files unless ``--force``.

``pa`` additionally accepts ``--report FILE`` (self-contained HTML run
report) and ``--ledger-out FILE`` (the decision ledger as JSONL, schema
``repro.report.ledger/2``), both backed by the provenance records of
:mod:`repro.report.ledger`; ``explain`` renders the same records as
text, either by re-running a workload or replaying ``--ledger FILE``.
The ledger, the events stream and the stats events are sinks of one
event model (:mod:`repro.telemetry.events` tabulates which kinds each
takes).

Scale (see ``src/repro/scale/``): the graph engines mine the
independent clusters of the block DFGs one after another, in-process.
Every run keeps a content-addressed shard cache in memory, so a round
re-mines only the shards the last round's extractions changed; the
output is bit-identical for every cache state.

Observability (see :mod:`repro.telemetry`): ``pa``, ``table1`` and
``profile`` accept ``--progress`` (a live one-line status on stderr)
and ``--events-out FILE`` (a JSONL stream of progress events, schema
``repro.telemetry.events/3``).  All of it is off by default and none
of it changes results: the observability flags are load-bearing-free
by construction (see the bit-identity tests).

Resilience (see ``src/repro/resilience/``): ``pa --checkpoint FILE``
rewrites a crash-safe resume file after every committed round and
``pa --resume FILE`` continues from it, bit-identically to the
uninterrupted run.  ``--fault point[:mode[:at]]`` (repeatable; also the
``REPRO_FAULT`` environment variable) arms the deterministic
fault-injection harness.  Every internal failure crosses :func:`main`
as one structured ``error[CODE]: message`` diagnostic plus a
``run.abort`` event, the last record of the ledger and of the events
stream — never a traceback (set ``REPRO_DEBUG=1`` to re-raise).
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import sys
import time
from typing import Any, Dict, Optional, Tuple

from repro import telemetry
from repro.telemetry import progress as telemetry_progress
from repro.telemetry.events import context, emit
from repro.analysis.tables import Table1Row, format_table1, format_table2
from repro.report import ledger
from repro.report.explain import explain_round, explain_run
from repro.report.html import write_report
from repro.binary.blocks import module_from_asm
from repro.binary.layout import layout
from repro.binary.program import Module
from repro.dfg.builder import build_dfgs
from repro.dfg.graph import FLOW_KINDS
from repro.dfg.stats import fanout_summary
from repro.binary.image import Image
from repro.binary.loader import load_image
from repro.isa.assembler import parse_program
from repro.minicc.driver import (
    CompileConfig,
    compile_to_asm,
    compile_to_image,
    compile_to_module,
)
from repro.minicc.scheduler import WINDOW
from repro.pa.driver import PAConfig, config_from_dict, run_pa
from repro.pa.sfx import SFXConfig, run_sfx
from repro.resilience import faultinject
from repro.resilience.checkpoint import (
    load_checkpoint,
    module_from_checkpoint,
)
from repro.resilience.errors import EXIT_INTERNAL, EXIT_INTERRUPT, ReproError
from repro.sim.machine import run_image
from repro.sim.sanitize import Sanitizer, counterexample_kinds
from repro.variance.genprog import GenConfig, generate_source, sized_config
from repro.variance.harness import VarianceConfig, run_variance
from repro.verify.absint import AUDIT_SCHEMA, audit_module
from repro.verify.lint import Severity, lint_module
from repro.verify.validate import TranslationValidationError
from repro.workloads import PROGRAMS, compile_workload, verify_workload


def _load_module(path: str, assembly: bool) -> Module:
    if path.endswith(".img"):
        # A linked binary image: decompile it through the loader, the
        # same path the paper's post link-time optimizer takes.
        with open(path, "rb") as handle:
            return load_image(Image.from_bytes(handle.read()))
    with open(path) as handle:
        source = handle.read()
    if assembly or path.endswith((".s", ".asm")):
        return module_from_asm(parse_program(source), entry="_start")
    return compile_to_module(source)


def _load_source(source: str, assembly: bool) -> Module:
    """A bundled workload by name, or a mini-C / assembly file."""
    if source in PROGRAMS:
        return compile_workload(source)
    if not os.path.exists(source):
        sys.exit(
            f"error: {source!r} is neither a bundled workload "
            f"({', '.join(sorted(PROGRAMS))}) nor a file"
        )
    return _load_module(source, assembly)


# ----------------------------------------------------------------------
# event sinks and telemetry plumbing shared by the commands
# ----------------------------------------------------------------------
#: args attributes that name output files (checked before the run)
#: ``-`` names stdout for ``json_out`` and is never checked.
_OUTPUT_ATTRS = ("trace_out", "stats_out", "json", "json_out", "report",
                 "ledger_out", "events_out", "output", "image_out")


def _add_telemetry_args(parser) -> None:
    parser.add_argument(
        "--trace-out", metavar="FILE",
        help="write a Chrome trace_event JSON (chrome://tracing, "
             "Perfetto)",
    )
    parser.add_argument(
        "--stats-out", metavar="FILE",
        help="write counters/histograms/span summaries as JSON",
    )
    parser.add_argument(
        "--events-out", metavar="FILE",
        help="stream live progress events as JSONL (schema "
             f"{telemetry.EVENTS_SCHEMA})",
    )
    parser.add_argument(
        "--progress", action="store_true",
        help="live one-line status on stderr (rounds, shards, cache "
             "hits, savings)",
    )
    parser.add_argument(
        "--force", action="store_true",
        help="overwrite existing output files",
    )


def _check_output_paths(args) -> list:
    """Validate every requested output path before the (long) run.

    A missing parent directory or an existing file without ``--force``
    aborts immediately instead of after minutes of mining.
    """
    paths = [
        path for name in _OUTPUT_ATTRS
        if (path := getattr(args, name, None)) and path != "-"
    ]
    for path in paths:
        directory = os.path.dirname(path) or "."
        if not os.path.isdir(directory):
            sys.exit(f"error: output directory does not exist: {path}")
        if os.path.exists(path) and not getattr(args, "force", False):
            sys.exit(
                f"error: refusing to overwrite {path} (use --force)"
            )
    return paths


def _abort_fields(exc: BaseException) -> Tuple[str, str]:
    """The ``run.abort`` code and message of a failure."""
    if isinstance(exc, ReproError):
        return exc.code, str(exc)
    if isinstance(exc, KeyboardInterrupt):
        return "REPRO-INTERRUPT", "interrupted"
    return "REPRO-INTERNAL", f"{type(exc).__name__}: {exc}"


@contextlib.contextmanager
def _sinks(args, title: str = "", force_telemetry: bool = False):
    """Attach the event sinks the output flags ask for — telemetry,
    the decision ledger, the live events bus — for the block, and
    write their files on the way out.

    A failure inside the block emits ``run.abort`` while every sink is
    still open, so the ledger and the events stream both end with it;
    the ledger JSONL is then still written, the other outputs are not.
    """
    _check_output_paths(args)
    traced = force_telemetry or any(
        getattr(args, name, None)
        for name in ("trace_out", "stats_out", "json", "report")
    )
    ledgered = bool(getattr(args, "report", None)
                    or getattr(args, "ledger_out", None))
    if traced:
        telemetry.reset()
        telemetry.enable()
    if ledgered:
        ledger.reset()
        ledger.enable()
    wants_tty = bool(getattr(args, "progress", False))
    events_path = getattr(args, "events_out", None)
    bus = None
    if wants_tty or events_path:
        bus = telemetry_progress.ProgressBus(
            tty=sys.stderr if wants_tty else None,
            events_path=events_path,
        )
    try:
        with telemetry_progress.activate(bus):
            try:
                yield
            except (Exception, KeyboardInterrupt) as exc:
                code, message = _abort_fields(exc)
                emit("run.abort", code=code, message=message)
                if getattr(args, "ledger_out", None):
                    try:
                        ledger.get().write_jsonl(args.ledger_out)
                    except Exception:
                        pass    # the abort diagnostic must never be masked
                raise
        if ledgered:
            decisions = ledger.get()
            if getattr(args, "ledger_out", None):
                decisions.write_jsonl(args.ledger_out)
                print(f"wrote {args.ledger_out}", file=sys.stderr)
            if getattr(args, "report", None):
                write_report(args.report, decisions.records,
                             stats=telemetry.stats_dict(telemetry.get()),
                             tree=telemetry.tree_summary(telemetry.get()),
                             title=title)
                print(f"wrote {args.report}", file=sys.stderr)
        if traced:
            _write_telemetry(args)
    finally:
        if bus is not None:
            bus.close()
            if events_path and not bus.broken:
                print(f"wrote {events_path}", file=sys.stderr)
        if ledgered:
            ledger.disable()
            ledger.reset()
        if traced:
            telemetry.disable()


def _write_telemetry(args) -> None:
    """Write the requested telemetry export files."""
    registry = telemetry.get()
    if getattr(args, "trace_out", None):
        telemetry.write_chrome_trace(registry, args.trace_out)
        print(f"wrote {args.trace_out}", file=sys.stderr)
    for path in {getattr(args, "stats_out", None),
                 getattr(args, "json", None)} - {None}:
        telemetry.write_stats(registry, path)
        print(f"wrote {path}", file=sys.stderr)


def _shard_totals(registry) -> Tuple[Dict[Any, float], Dict[Any, int],
                                     Dict[Any, int]]:
    """Per shard: mining seconds, lattice nodes and rounds, summed over
    the ``shard.done`` events (all empty when every shard came from
    the cache)."""
    seconds: Dict[Any, float] = {}
    nodes: Dict[Any, int] = {}
    rounds: Dict[Any, int] = {}
    for event in registry.events:
        shard = event.get("shard")
        if event.get("name") != "shard.done" or shard is None:
            continue
        seconds[shard] = seconds.get(shard, 0.0) + float(
            event.get("seconds", 0))
        nodes[shard] = nodes.get(shard, 0) + int(
            event.get("lattice_nodes", 0))
        rounds[shard] = rounds.get(shard, 0) + 1
    return seconds, nodes, rounds


def _shard_imbalance_table(registry) -> str:
    """Per-shard mining wall-clock table (``profile``); empty string
    when no shard was mined (every shard came from the cache)."""
    seconds, nodes, rounds = _shard_totals(registry)
    if not seconds:
        return ""
    total = sum(seconds.values())
    lines = ["shard  rounds   seconds   share  lattice nodes"]
    for shard in sorted(seconds):
        share = (seconds[shard] / total * 100.0) if total else 0.0
        lines.append(
            f"{shard:5d}  {rounds[shard]:6d}  {seconds[shard]:8.3f}  "
            f"{share:5.1f}%  {nodes[shard]:13d}"
        )
    mean = total / len(seconds)
    peak = max(seconds.values())
    ratio = (peak / mean) if mean else 0.0
    lines.append(f"imbalance: max/mean = {ratio:.2f}x "
                 f"over {len(seconds)} shards")
    return "\n".join(lines)


def _compile_config_from_args(args) -> CompileConfig:
    """Collect the codegen-perturbation flags into a CompileConfig."""
    return CompileConfig(
        schedule=not args.no_schedule,
        schedule_window=args.schedule_window,
        peephole=args.peephole,
        layout_seed=args.layout_seed,
        regalloc_seed=args.regalloc_seed,
    )


def cmd_compile(args) -> int:
    _check_output_paths(args)
    with open(args.source) as handle:
        source = handle.read()
    config = _compile_config_from_args(args)
    if args.image_out:
        image = compile_to_image(source, config=config)
        with open(args.image_out, "wb") as handle:
            handle.write(image.to_bytes())
        print(f"wrote {args.image_out} ({image.text_size_bytes} text "
              f"bytes + {4 * len(image.data)} data bytes)",
              file=sys.stderr)
        return 0
    print(compile_to_asm(source, config=config))
    return 0


def cmd_run(args) -> int:
    module = _load_module(args.source, args.assembly)
    result = run_image(layout(module), max_steps=args.max_steps)
    sys.stdout.write(result.output_text)
    print(f"[exit {result.exit_code}, {result.steps} instructions]",
          file=sys.stderr)
    return result.exit_code


def cmd_pa(args) -> int:
    if args.engine == "sfx" and (args.verify or args.checkpoint
                                 or args.resume):
        sys.exit("error: --verify/--checkpoint/--resume need a graph "
                 "engine; the sfx baseline does not go through the "
                 "round loop they hook")
    for spec in args.fault or ():
        try:
            faultinject.arm(spec)
        except ValueError as exc:
            sys.exit(f"error: {exc}")
    if args.checkpoint:
        # Deliberately exempt from the clobber preflight: the file is
        # rewritten (atomically) after every round by design, and a
        # resumed run keeps checkpointing to the same path.
        directory = os.path.dirname(args.checkpoint) or "."
        if not os.path.isdir(directory):
            sys.exit("error: output directory does not exist: "
                     f"{args.checkpoint}")
    with _sinks(args, title=f"PA run report — {args.source} "
                            f"({args.engine})"):
        return _pa(args)


def _pa(args) -> int:
    """``cmd_pa`` once the sinks are attached: run, check, report."""
    resume = None
    if args.resume:
        # The checkpointed config wins (the continuation must replay
        # the original run's decisions); only the checkpoint path is
        # taken from this invocation.
        resume = load_checkpoint(args.resume)
        module = module_from_checkpoint(resume)
        config = config_from_dict(resume.config)
        config.checkpoint_path = args.checkpoint
        print(f"resumed from round {resume.round} ({args.resume})",
              file=sys.stderr)
    else:
        module = _load_source(args.source, args.assembly)
        config = PAConfig(
            miner=args.engine,
            max_nodes=args.max_nodes,
            time_budget=args.time_budget,
            verify=args.verify,
            verify_max_retries=args.verify_max_retries,
            checkpoint_path=args.checkpoint,
        )
    # The sanitizer is a passive observer: sanitized runs remain
    # bit-identical to plain ones, so running the oracle pair under it
    # changes nothing unless a counterexample fires.
    ref_sanitizer = Sanitizer() if args.sanitize else None
    reference = run_image(layout(module), max_steps=args.max_steps,
                          sanitizer=ref_sanitizer)
    before = module.num_instructions
    try:
        with context(source=args.source):
            if args.engine == "sfx":
                result = run_sfx(module, SFXConfig(max_len=args.max_nodes))
            else:
                result = run_pa(module, config, resume=resume)
    except TranslationValidationError as exc:
        print(f"VERIFICATION FAILED: {exc}", file=sys.stderr)
        if exc.counterexample is not None:
            ce = exc.counterexample
            print(f"  counterexample: {ce.function} block {ce.old_block}, "
                  f"resource {ce.resource}", file=sys.stderr)
        return 2
    after_sanitizer = Sanitizer() if args.sanitize else None
    after = run_image(layout(module), max_steps=args.max_steps,
                      sanitizer=after_sanitizer)
    if args.sanitize:
        new_kinds = counterexample_kinds(ref_sanitizer, after_sanitizer)
        if new_kinds:
            print("SANITIZER FAILED: the abstracted program trips "
                  f"{', '.join(sorted(new_kinds))} that the original "
                  "does not", file=sys.stderr)
            for finding in after_sanitizer.findings:
                if finding.kind in new_kinds:
                    print(f"  [{finding.kind}] pc={finding.pc:#x}: "
                          f"{finding.detail}", file=sys.stderr)
            emit(
                "sanitize.counterexample",
                kinds=sorted(new_kinds),
                findings=[f.to_dict()
                          for f in after_sanitizer.findings
                          if f.kind in new_kinds],
            )
            return 2
    status = "OK" if (after.output, after.exit_code) == (
        reference.output, reference.exit_code) else "BEHAVIOUR CHANGED!"
    if args.verify and status == "OK":
        status = "OK, verified"
    if args.sanitize and status.startswith("OK"):
        status += ", sanitized"
    print(f"{args.engine}: {before} -> {module.num_instructions} "
          f"instructions (saved {result.saved}) in {result.rounds} rounds "
          f"[{status}]")
    if args.engine != "sfx":
        print(f"scale: shards={result.shards} "
              f"cache {result.cache_hits} hits / "
              f"{result.cache_misses} misses, "
              f"{result.lattice_nodes_reused} lattice nodes reused",
              file=sys.stderr)
    if getattr(result, "degraded", False):
        # Anytime semantics: degraded is still exit 0 — the module is
        # the valid best-so-far result, and the causes are on record.
        print("note: run degraded "
              f"({', '.join(result.degraded_reasons)}); "
              "best-so-far result kept", file=sys.stderr)
    for record in result.records:
        print(f"  round {record.round:2d} {record.method:9s} "
              f"size={record.size:2d} x{record.occurrences} "
              f"-> {record.new_symbol}")
    if args.output:
        with open(args.output, "w") as handle:
            handle.write(module.render())
        print(f"wrote {args.output}")
    return 0 if status.startswith("OK") else 1


def cmd_audit(args) -> int:
    """Abstract-interpretation audit: per-function invariant dump.

    Exit 1 when the interpreter proves a miscompile-class fact: a
    clobbered saved return address, paths that merge at two stack
    heights (or a conditional ``sp`` move), or returns at two heights.
    Warnings — caller-frame addressing, uninit reads, unbounded growth,
    a non-zero or negative height — report but do not fail, since
    outlined helpers exhibit them legitimately.
    """
    with _sinks(args):
        module = _load_source(args.source, args.assembly)
        result = audit_module(module)
    payload = result.to_payload(source=args.source)

    if args.json_out == "-":
        json.dump(payload, sys.stdout, indent=2)
        print()
    elif args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(payload, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json_out}", file=sys.stderr)
    else:
        errors = payload["counts"]["errors"]
        print(f"audit: {len(result.summaries)} functions, "
              f"{result.iterations} summary iterations, "
              f"{len(result.events)} events ({errors} errors)")
        for name, facts in payload["functions"].items():
            net = facts["net_delta"]
            height = "known" if facts["height_known"] else "LOST"
            bits = [f"net={'?' if net is None else net}",
                    f"height={height}",
                    f"max_height={facts['max_height']}"]
            if facts["retaddr_slots"]:
                bits.append(f"saved_lr@{facts['retaddr_slots']}")
            if facts["caller_reads"]:
                bits.append(f"caller_reads={facts['caller_reads']}")
            if facts["caller_writes"]:
                bits.append(f"caller_writes={facts['caller_writes']}")
            bits.append("fragile=" +
                        ("YES" if facts["fragile"] else "no"))
            print(f"  {name}: " + " ".join(bits))
        for event in result.events:
            where = f"{event.function}, block {event.block}"
            if event.insn is not None:
                where += f", insn {event.insn}"
            print(f"  [{event.kind}] {where}: {event.detail}")
    return 0 if payload["ok"] else 1


def cmd_lint(args) -> int:
    """Lint a program against the module invariants (exit 1 on errors)."""
    module = _load_source(args.source, args.assembly)
    report = lint_module(module)
    if args.min_severity != "info":
        floor = Severity[args.min_severity.upper()]
        report.findings = [
            f for f in report.findings if f.severity >= floor
        ]
    if args.json:
        print(report.to_json())
    else:
        print(report.render())
    return 0 if report.ok else 1


def cmd_table1(args) -> int:
    rows = []
    with _sinks(args):
        for name in args.programs or sorted(PROGRAMS):
            base = compile_workload(name).num_instructions
            saved = {}
            for engine in ("sfx", "dgspan", "edgar"):
                module = compile_workload(name)
                started = time.perf_counter()
                with telemetry.span("table1.cell", workload=name,
                                    engine=engine):
                    if engine == "sfx":
                        result = run_sfx(module)
                    else:
                        result = run_pa(module, PAConfig(
                            miner=engine, time_budget=args.time_budget))
                verify_workload(name, module)
                saved[engine] = base - module.num_instructions
                elapsed = time.perf_counter() - started
                emit(
                    "table1.row",
                    program=name,
                    engine=engine,
                    instructions=base,
                    saved=saved[engine],
                    seconds=elapsed,
                    degraded=bool(getattr(result, "degraded", False)),
                    deadline_hits=getattr(result, "deadline_hits", 0),
                    mis_budget_exhausted=getattr(
                        result, "mis_budget_exhausted", 0),
                    shards=getattr(result, "shards", 0),
                    cache_hits=getattr(result, "cache_hits", 0),
                    lattice_nodes_reused=getattr(
                        result, "lattice_nodes_reused", 0),
                )
                print(f"  {name}/{engine}: saved {saved[engine]} "
                      f"({elapsed:.1f}s)",
                      file=sys.stderr)
            rows.append(Table1Row(name, base, saved["sfx"],
                                  saved["dgspan"], saved["edgar"]))
    print(format_table1(rows))
    return 0


def cmd_profile(args) -> int:
    """Run one workload under full telemetry; print the phase tree."""
    if args.verify and args.engine == "sfx":
        sys.exit("error: --verify needs a graph engine; the sfx baseline "
                 "does not go through the round loop the validator hooks")
    with _sinks(args, force_telemetry=True):
        module = _load_source(args.source, args.assembly)
        before = module.num_instructions
        if args.engine == "sfx":
            result = run_sfx(module, SFXConfig(max_len=args.max_nodes))
        else:
            config = PAConfig(
                miner=args.engine,
                max_nodes=args.max_nodes,
                time_budget=args.time_budget,
                verify=args.verify,
            )
            result = run_pa(module, config)
    registry = telemetry.get()
    print(f"{args.source}/{args.engine}: {before} -> "
          f"{module.num_instructions} instructions "
          f"(saved {result.saved}) in {result.rounds} rounds, "
          f"{result.elapsed_seconds:.2f}s")
    print()
    print(telemetry.tree_summary(registry))
    print()
    print(telemetry.counters_summary(registry))
    shard_table = _shard_imbalance_table(registry)
    if shard_table:
        print()
        print(shard_table)
    return 0


def cmd_explain(args) -> int:
    """Explain one abstraction round (or the whole run) from the ledger.

    Without ``--ledger`` the workload is (re)run with the decision
    ledger enabled; with it, a previously saved ``--ledger-out`` JSONL
    stream is replayed instantly.
    """
    if args.ledger:
        records = ledger.read_jsonl(args.ledger)
    else:
        ledger.reset()
        ledger.enable()
        try:
            module = _load_source(args.source, args.assembly)
            with context(source=args.source):
                run_pa(module, PAConfig(
                    miner=args.engine,
                    max_nodes=args.max_nodes,
                    time_budget=args.time_budget,
                ))
            records = list(ledger.get().records)
        finally:
            ledger.disable()
            ledger.reset()
    if not records:
        sys.exit("error: the ledger is empty (nothing to explain)")
    if args.round == "all":
        print(explain_run(records))
    else:
        try:
            round_number = int(args.round)
        except ValueError:
            sys.exit(f"error: round must be an integer or 'all', "
                     f"got {args.round!r}")
        print(explain_round(records, round_number))
    return 0


def cmd_stats(args) -> int:
    module = _load_source(args.source, args.assembly)
    dfgs = build_dfgs(module, min_nodes=1, mined_kinds=FLOW_KINDS)
    summary = fanout_summary(dfgs)
    print(format_table2({args.source: summary}))
    return 0


def cmd_variance(args) -> int:
    """Differential compilation-variance sweep (schema repro.variance/1).

    Exit 1 when the oracle disagrees on any variant, the variants'
    original builds behave differently, or ``--min-overlap`` is not
    met; exit 0 otherwise.
    """
    if args.fuzz_seed is not None:
        if args.fuzz_size:
            gen = sized_config(args.fuzz_seed, args.fuzz_size)
        else:
            gen = GenConfig(seed=args.fuzz_seed)
        source = generate_source(gen)
        source_name = f"fuzz-{args.fuzz_seed}"
    elif args.workload in PROGRAMS:
        source = PROGRAMS[args.workload].source
        source_name = args.workload
    elif os.path.exists(args.workload):
        with open(args.workload) as handle:
            source = handle.read()
        source_name = args.workload
    else:
        sys.exit(
            f"error: {args.workload!r} is neither a bundled workload "
            f"({', '.join(sorted(PROGRAMS))}) nor a mini-C file"
        )

    config = VarianceConfig(
        engine=args.engine,
        n_variants=args.variants,
        grid_seed=args.seed,
        max_nodes=args.max_nodes,
        time_budget=args.time_budget,
        verify=args.verify,
        max_steps=args.max_steps,
        sanitize=args.sanitize,
    )
    with _sinks(args, title=f"Variance sweep — {source_name} "
                            f"({args.engine})"), \
            context(source=source_name):
        report = run_variance(source, config, source_name=source_name)

    out = sys.stderr if args.json_out == "-" else sys.stdout
    print(f"variance sweep: {source_name} x {report['n_variants']} "
          f"variants ({args.engine})", file=out)
    for row in report["variants"]:
        oracle = "oracle ok" if row["oracle_ok"] else (
            f"ORACLE FAILED: {row['oracle_detail']}")
        print(f"  {row['name']:<24s} {row['instructions_before']:5d} -> "
              f"{row['instructions_after']:5d} (saved {row['saved']:3d}, "
              f"{row['fragments']} fragments) [{oracle}]", file=out)
    print(f"  fragment overlap: mean jaccard "
          f"{report['overlap']['mean_jaccard']}, min "
          f"{report['overlap']['min_jaccard']}", file=out)
    print(f"  savings degradation: {report['savings']['degradation']} "
          f"(max {report['savings']['max']}, min "
          f"{report['savings']['min']})", file=out)

    status = 0
    if not report["oracle_ok"]:
        print("FAIL: abstraction changed behaviour on at least one "
              "variant", file=sys.stderr)
        status = 1
    if not report["cross_variant_behaviour_ok"]:
        print("FAIL: variant builds of the same source behave "
              "differently (codegen-knob bug)", file=sys.stderr)
        status = 1
    if (args.min_overlap is not None
            and report["overlap"]["mean_jaccard"] < args.min_overlap):
        print(f"FAIL: mean fragment overlap "
              f"{report['overlap']['mean_jaccard']} below the "
              f"--min-overlap {args.min_overlap} gate", file=sys.stderr)
        status = 1

    if args.json_out == "-":
        json.dump(report, sys.stdout, indent=2)
        print()
    elif args.json_out:
        with open(args.json_out, "w") as handle:
            json.dump(report, handle, indent=2)
            handle.write("\n")
        print(f"wrote {args.json_out}", file=sys.stderr)
    return status


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Graph-based procedural abstraction (CGO 2007)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "compile",
        help="compile mini-C to assembly (or a linked .img)",
        description="Compile mini-C to an assembly listing, or with "
                    "--image-out to a linked binary image.  The "
                    "remaining flags are compilation-variance knobs "
                    "(see the variance command): each one perturbs "
                    "code generation without changing behaviour.",
    )
    p.add_argument("source")
    p.add_argument("--no-schedule", action="store_true",
                   help="skip the per-block list scheduler (emit "
                        "template order)")
    p.add_argument("--schedule-window", type=int, default=WINDOW,
                   metavar="N",
                   help="scheduler lookahead window (default: "
                        "%(default)s; values < 3 disable reordering)")
    p.add_argument("--peephole", action=argparse.BooleanOptionalAction,
                   default=False,
                   help="late peephole cleanup: jump-to-next elision "
                        "and no-op removal (default: off)")
    p.add_argument("--layout-seed", type=int, default=None, metavar="S",
                   help="shuffle the function emission order with this "
                        "seed (default: source order)")
    p.add_argument("--regalloc-seed", type=int, default=None, metavar="S",
                   help="permute the callee-saved register assignment "
                        "order with this seed (default: r4..r10)")
    p.add_argument("--image-out", metavar="FILE",
                   help="link and write a runnable binary image "
                        "(.img) instead of printing assembly")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing output files")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("run", help="compile/assemble and execute")
    p.add_argument("source",
                   help="mini-C source, .s/.asm assembly, or linked "
                        ".img image")
    p.add_argument("--assembly", action="store_true",
                   help="treat the input as assembly, not mini-C")
    p.add_argument("--max-steps", type=int, default=50_000_000)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("pa", help="run procedural abstraction")
    p.add_argument("source",
                   help="workload name, source path, or linked .img")
    p.add_argument("--engine", choices=("sfx", "dgspan", "edgar"),
                   default="edgar")
    p.add_argument("--assembly", action="store_true")
    p.add_argument("--max-nodes", type=int, default=8)
    p.add_argument("--time-budget", type=float, default=600.0)
    p.add_argument("--max-steps", type=int, default=50_000_000)
    p.add_argument("-o", "--output", help="write the compacted assembly")
    p.add_argument("--verify", action="store_true",
                   help="translation-validate every round; exit 2 on a "
                        "counterexample")
    p.add_argument("--sanitize", action="store_true",
                   help="run the before/after simulations under the "
                        "stack sanitizer (shadow call stack, saved-lr "
                        "protection, init tracking); exit 2 when the "
                        "abstracted program trips finding kinds the "
                        "original does not.  Off by default; sanitized "
                        "runs are bit-identical to plain ones")
    p.add_argument("--verify-max-retries", type=int, default=3,
                   metavar="N",
                   help="verify-failure recovery attempts per round "
                        "(rollback + blocklist + re-mine) before the "
                        "exit-2 abort (default: 3)")
    p.add_argument("--checkpoint", metavar="FILE",
                   help="rewrite a crash-safe resume file (schema "
                        "repro.resilience.ckpt/1) after every round")
    p.add_argument("--resume", metavar="FILE",
                   help="continue a checkpointed run; bit-identical to "
                        "the uninterrupted one")
    p.add_argument("--fault", action="append", metavar="SPEC",
                   help="arm a deterministic fault point, "
                        "point[:mode[:at]] (repeatable; modes: raise, "
                        "interrupt, deadline, corrupt)")
    p.add_argument("--report", metavar="FILE",
                   help="write a self-contained HTML run report")
    p.add_argument("--ledger-out", metavar="FILE",
                   help="write the decision ledger as JSONL")
    _add_telemetry_args(p)
    p.set_defaults(func=cmd_pa)

    p = sub.add_parser(
        "audit",
        help="abstract-interpretation audit: per-function stack/value "
             "invariants",
        description="Run the interprocedural abstract interpreter and "
                    "dump each function's proven invariants (net stack "
                    "delta, tracked height, saved-lr slots, "
                    "caller-frame accesses, fragility) plus every "
                    "site-level event.  Exits 1 when a "
                    "miscompile-class fact is proven (clobbered saved "
                    "return address, unbalanced stack merge).  "
                    f"--json emits the schema {AUDIT_SCHEMA}.",
    )
    p.add_argument("source", help="workload name or source path")
    p.add_argument("--assembly", action="store_true",
                   help="treat the input as assembly, not mini-C")
    p.add_argument("--json", dest="json_out", nargs="?", const="-",
                   metavar="FILE",
                   help=f"write the {AUDIT_SCHEMA} payload as JSON "
                        "(bare --json prints to stdout)")
    _add_telemetry_args(p)
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser(
        "lint",
        help="check a program against the module invariants",
    )
    p.add_argument("source", help="workload name or source path")
    p.add_argument("--assembly", action="store_true",
                   help="treat the input as assembly, not mini-C")
    p.add_argument("--json", action="store_true",
                   help="print the report as JSON (schema "
                        "repro.verify.lint/2)")
    p.add_argument("--min-severity", choices=("info", "warning", "error"),
                   default="info",
                   help="drop findings below this severity")
    p.set_defaults(func=cmd_lint)

    p = sub.add_parser(
        "explain",
        help="narrate one abstraction round from the decision ledger",
    )
    p.add_argument("round", help="round number, or 'all' for a digest")
    p.add_argument("--source", default="sha",
                   help="workload name or source path (default: sha)")
    p.add_argument("--engine", choices=("dgspan", "edgar"),
                   default="edgar")
    p.add_argument("--assembly", action="store_true")
    p.add_argument("--max-nodes", type=int, default=8)
    p.add_argument("--time-budget", type=float, default=600.0)
    p.add_argument("--ledger", metavar="FILE",
                   help="replay a saved --ledger-out JSONL instead of "
                        "re-running the workload")
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("table1", help="regenerate the paper's Table 1")
    p.add_argument("programs", nargs="*",
                   help=f"subset of: {', '.join(sorted(PROGRAMS))}")
    p.add_argument("--time-budget", type=float, default=180.0)
    p.add_argument("--json", metavar="FILE",
                   help="write rows + telemetry as stats JSON")
    _add_telemetry_args(p)
    p.set_defaults(func=cmd_table1)

    p = sub.add_parser(
        "profile",
        help="run a workload under telemetry; print the phase-time tree",
    )
    p.add_argument("source", help="workload name or source path")
    p.add_argument("--engine", choices=("sfx", "dgspan", "edgar"),
                   default="edgar")
    p.add_argument("--assembly", action="store_true")
    p.add_argument("--max-nodes", type=int, default=8)
    p.add_argument("--time-budget", type=float, default=600.0)
    p.add_argument("--verify", action="store_true",
                   help="translation-validate every round, so the tree "
                        "shows verification cost alongside mining")
    _add_telemetry_args(p)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("stats", help="DFG fan statistics (Table 2 style)")
    p.add_argument("source", help="workload name or source path")
    p.add_argument("--assembly", action="store_true")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser(
        "variance",
        help="differential sweep over perturbed compiler variants",
        description="Compile one source under a grid of perturbed "
                    "minicc configurations (scheduler, block layout, "
                    "register assignment, peephole), abstract every "
                    "variant, and check three things: the simulation "
                    "oracle (original vs. abstracted behaviour AND "
                    "final data-section state, per variant), savings "
                    "degradation across variants, and pairwise "
                    "canonical-fingerprint overlap of the mined "
                    "fragments.  Emits the versioned JSON schema "
                    "repro.variance/1.",
    )
    p.add_argument("--workload", default="sha",
                   help="bundled workload name or mini-C file "
                        "(default: sha)")
    p.add_argument("--fuzz-seed", type=int, default=None, metavar="S",
                   help="ignore --workload; sweep a program generated "
                        "by the seeded mini-C fuzzer (genprog)")
    p.add_argument("--fuzz-size", type=int, default=None,
                   metavar="INSTRS",
                   help="approximate static instruction count of the "
                        "fuzzed program (with --fuzz-seed)")
    p.add_argument("--variants", type=int, default=4, metavar="K",
                   help="grid size incl. the baseline (default: 4)")
    p.add_argument("--seed", type=int, default=0,
                   help="variant-grid seed (default: 0)")
    p.add_argument("--engine", choices=("sfx", "dgspan", "edgar"),
                   default="edgar")
    p.add_argument("--max-nodes", type=int, default=8)
    p.add_argument("--time-budget", type=float, default=60.0,
                   help="PA mining budget per variant, seconds "
                        "(default: %(default)s)")
    p.add_argument("--max-steps", type=int, default=50_000_000)
    p.add_argument("--verify", action="store_true",
                   help="translation-validate every abstraction round "
                        "on every variant")
    p.add_argument("--sanitize", action="store_true",
                   help="run every oracle simulation under the stack "
                        "sanitizer; new finding kinds on an abstracted "
                        "build fail that variant's oracle")
    p.add_argument("--min-overlap", type=float, default=None,
                   metavar="J",
                   help="exit 1 when the mean pairwise fragment "
                        "overlap (Jaccard) falls below this gate")
    p.add_argument("--json", dest="json_out", nargs="?", const="-",
                   metavar="FILE",
                   help="write the repro.variance/1 report as JSON "
                        "(bare --json prints to stdout)")
    p.add_argument("--ledger-out", metavar="FILE",
                   help="write the decision ledger as JSONL")
    p.add_argument("--force", action="store_true",
                   help="overwrite existing output files")
    p.set_defaults(func=cmd_variance)

    return parser


def main(argv: Optional[list] = None) -> int:
    args = build_parser().parse_args(argv)
    faultinject.arm_from_env()
    try:
        return args.func(args)
    except ReproError as exc:
        # The typed boundary: every internal failure leaves one
        # structured diagnostic and a documented exit code, never a
        # traceback (its run.abort event is emitted by ``_sinks``).
        print(f"error[{exc.code}]: {exc}", file=sys.stderr)
        return exc.exit_code
    except KeyboardInterrupt:
        # Interrupts inside the round loop degrade to exit 0 (the
        # driver's anytime path); only one landing outside it — or a
        # second Ctrl-C — reaches this boundary.
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPT
    except Exception as exc:
        if os.environ.get("REPRO_DEBUG"):
            raise
        __, message = _abort_fields(exc)
        print(f"error[REPRO-INTERNAL]: {message}", file=sys.stderr)
        return EXIT_INTERNAL
    finally:
        faultinject.disarm_all()


if __name__ == "__main__":
    sys.exit(main())
