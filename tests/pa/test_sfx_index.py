"""SFX's run-long n-gram index picks what a per-round rebuild picks.

:func:`_reference_collect` below is the rebuild the index replaced: it
runs the round's analyses, enumerates every n-gram of every eligible
block afresh and scores every repeated one.  Driving the same
``_apply`` with it, round by round, must pick the same candidate as
:func:`run_sfx` in every round and end with the same records and the
same module.
"""

from typing import Dict, List, Optional, Tuple

import pytest

import repro.pa.sfx as sfx
from repro.binary.layout import layout
from repro.isa.registers import LR
from repro.minicc.driver import CompileConfig, compile_to_module
from repro.pa.driver import ExtractionRecord
from repro.pa.fragments import call_benefit, call_overhead, crossjump_benefit
from repro.pa.legality import ExtractionMethod, classify_fragment
from repro.pa.sfx import SFXConfig, run_sfx
from repro.sim.machine import run_image
from repro.variance.genprog import generate_source, sized_config
from repro.verify.dataflow import AnalysisMemo
from repro.workloads import PROGRAMS, compile_workload

from tests.conftest import module_from_source, run_asm
from tests.pa.test_sp_fragile_regression import COMPOSITION_PROGRAM


def _lr_read_positions(block) -> List[int]:
    return [
        i for i, insn in enumerate(block.instructions)
        if insn.mnemonic != "bl" and LR in insn.regs_read()
    ]


def _reference_collect(module, config: SFXConfig, memo: AnalysisMemo):
    """Index all repeated n-grams and score them (the per-round rebuild)."""
    cfg = sfx.build_module_cfg(module)
    lr_live = sfx.lr_live_out_blocks(module, memo, cfg)
    fragile = sfx.sp_fragile_functions(module, memo, cfg)
    grams: Dict[Tuple[str, ...], list] = {}
    for func in module.functions:
        if func.pa_exempt:
            continue
        for bi, block in enumerate(func.blocks):
            texts = [str(insn) for insn in block.instructions]
            n = len(texts)
            for length in range(config.min_len, config.max_len + 1):
                for start in range(0, n - length + 1):
                    key = tuple(texts[start:start + length])
                    grams.setdefault(key, []).append(
                        ((func.name, bi, start), block)
                    )

    best: Optional[sfx._SeqCandidate] = None
    for key, occurrences in grams.items():
        if len(occurrences) < 2:
            continue
        length = len(key)
        sample_block = occurrences[0][1]
        sample_start = occurrences[0][0][2]
        insns = tuple(
            sample_block.instructions[sample_start:sample_start + length]
        )
        method = classify_fragment(insns, fragile)
        if method is None:
            continue
        runs = _reference_filter_runs(method, occurrences, length, lr_live)
        n = len(runs)
        if n < 2:
            continue
        if method is ExtractionMethod.CALL:
            benefit = call_benefit(length, n, call_overhead(insns))
        else:
            benefit = crossjump_benefit(length, n)
        if benefit <= 0:
            continue
        candidate = sfx._SeqCandidate(insns, method, runs, benefit)
        if best is None or candidate.sort_key() < best.sort_key():
            best = candidate
    return best


def _reference_filter_runs(method, occurrences, length, lr_live):
    runs = []
    last_end: Dict[Tuple[str, int], int] = {}
    for run, block in sorted(occurrences, key=lambda rb: rb[0]):
        func, bi, start = run
        block_key = (func, bi)
        if last_end.get(block_key, -1) > start:
            continue
        if method is ExtractionMethod.CALL:
            if block_key in lr_live:
                continue
            if any(p >= start + length for p in _lr_read_positions(block)):
                continue
            if start + length > len(block.instructions):
                continue
        else:
            if start + length != len(block.instructions):
                continue
        runs.append(run)
        last_end[block_key] = start + length
    return runs


def _pick(candidate) -> tuple:
    return (candidate.method, candidate.insns, tuple(candidate.runs),
            candidate.benefit)


def _reference_run(module, config: SFXConfig):
    """``run_sfx``'s loop over the reference rebuild: (picks, records)."""
    memo = AnalysisMemo()
    picks, records = [], []
    for round_index in range(config.max_rounds):
        candidate = _reference_collect(module, config, memo)
        if candidate is None:
            break
        picks.append(_pick(candidate))
        symbol = sfx._apply(module, candidate)
        records.append(ExtractionRecord(
            round=round_index,
            method=candidate.method.value,
            size=len(candidate.insns),
            occurrences=len(candidate.runs),
            benefit=candidate.benefit,
            new_symbol=symbol,
            instructions=tuple(str(i) for i in candidate.insns),
        ))
    return picks, records


def _assert_same_as_reference(build, monkeypatch, config=None) -> list:
    """Run SFX and the reference on two modules from *build*; return
    each applied candidate with its function block counts before the
    rewrite."""
    config = config or SFXConfig()
    reference = build()
    ref_picks, ref_records = _reference_run(reference, config)

    applied = []
    real_apply = sfx._apply

    def recording(module, candidate):
        applied.append((candidate, {f.name: len(f.blocks)
                                    for f in module.functions}))
        return real_apply(module, candidate)

    module = build()
    with monkeypatch.context() as patch:
        patch.setattr(sfx, "_apply", recording)
        result = run_sfx(module, config)
    assert [_pick(candidate) for candidate, __ in applied] == ref_picks
    assert result.records == ref_records
    assert module.render() == reference.render()
    return applied


def test_eight_programs(monkeypatch):
    for name in PROGRAMS:
        _assert_same_as_reference(lambda: compile_workload(name),
                                  monkeypatch)


@pytest.mark.parametrize("config", [SFXConfig(min_len=3),
                                    SFXConfig(max_len=5)],
                         ids=["min_len3", "max_len5"])
def test_eight_programs_other_lengths(monkeypatch, config):
    for name in PROGRAMS:
        _assert_same_as_reference(lambda: compile_workload(name),
                                  monkeypatch, config)


@pytest.mark.parametrize("seed,compile_config", [
    (1, CompileConfig()),
    (2, CompileConfig()),
    (3, CompileConfig(schedule=False)),
    (4, CompileConfig(schedule=False, peephole=True)),
    (5, CompileConfig(layout_seed=7, regalloc_seed=3)),
    (6, CompileConfig(schedule=False, layout_seed=11)),
])
def test_generated_programs(monkeypatch, seed, compile_config):
    source = generate_source(sized_config(seed, 300))
    _assert_same_as_reference(
        lambda: compile_to_module(source, config=compile_config),
        monkeypatch)


def test_lr_live_flips_on_untouched_blocks(monkeypatch):
    """SFX's own rewrites never flip the lr-live flag of a block they
    leave alone, so the analysis is widened here: while the module has
    an odd number of functions, every entry block counts as lr-live
    too.  That only forbids call sites, so each run stays sound, and
    the entry blocks' grams must follow their flag without being
    re-indexed."""
    real = sfx.lr_live_out_blocks

    def widened(module, memo=None, cfg=None):
        live = set(real(module, memo, cfg))
        if len(module.functions) % 2:
            live.update((func.name, 0) for func in module.functions)
        return live

    monkeypatch.setattr(sfx, "lr_live_out_blocks", widened)
    for name in PROGRAMS:
        _assert_same_as_reference(lambda: compile_workload(name),
                                  monkeypatch)


def _assert_fragile_set_changes(asm, monkeypatch):
    fragile_sets = []
    real = sfx.sp_fragile_functions

    def recording(module, memo=None, cfg=None):
        fragile_sets.append(real(module, memo, cfg))
        return fragile_sets[-1]

    monkeypatch.setattr(sfx, "sp_fragile_functions", recording)
    _assert_same_as_reference(lambda: module_from_source(asm), monkeypatch)
    assert len(set(fragile_sets)) > 1


def test_fragile_composition_program(monkeypatch):
    """Round 1 outlines an sp-storing run into a frameless, fragile
    procedure; round 2's best gram calls it and loses its call
    method."""
    _assert_fragile_set_changes(COMPOSITION_PROGRAM, monkeypatch)


#: ``x`` and ``w`` move ``sp`` by ``r1``, a constant absint tracks
#: there.  Outlined, the run sees an unknown ``r1``: the new procedure's
#: height is unknown, so it, ``x``, ``w`` and their callers turn
#: fragile.  ``y``'s and ``z``'s ``bl x`` runs are untouched by that
#: round, yet their gram loses its call method: only a re-score on the
#: fragile change sees it.
FRAGILE_CALLEE_PROGRAM = """
.text
.global _start
_start:
    bl y
    swi #2
    bl z
    swi #2
    mov r0, #0
    swi #0
x:
    push {r4, lr}
    mov r1, #8
    sub sp, sp, r1
    mov r2, #3
    str r2, [sp]
    add r2, r2, #40
    eor r2, r2, #7
    add sp, sp, #8
    mov r0, r2
    pop {r4, pc}
w:
    push {r4, lr}
    mov r1, #8
    mov r3, #1
    sub sp, sp, r1
    mov r2, #3
    str r2, [sp]
    add r2, r2, #40
    eor r2, r2, #7
    add sp, sp, #8
    add r0, r2, r3
    pop {r4, pc}
y:
    push {r4, lr}
    mov r0, #1
    bl x
    mov r4, #5
    add r4, r4, #9
    eor r4, r4, #3
    add r0, r0, r4
    sub r0, r0, #1
    pop {r4, pc}
z:
    push {r4, lr}
    mov r0, #2
    bl w
    bl x
    mov r4, #5
    add r4, r4, #9
    eor r4, r4, #3
    add r0, r0, r4
    add r0, r0, #2
    pop {r4, pc}
"""


def test_fragile_callee_of_untouched_calls(monkeypatch):
    _assert_fragile_set_changes(FRAGILE_CALLEE_PROGRAM, monkeypatch)


#: ``f``'s two branch arms end in the same four instructions: the cross
#: jump splits the first arm's block after its first instruction, so
#: every later block of ``f`` moves up one index, and the epilogue run
#: that ``f`` shares with ``g`` is outlined from those moved blocks in
#: later rounds.
CROSSJUMP_SPLIT_PROGRAM = """
.text
.global _start
_start:
    mov r0, #3
    bl f
    swi #2
    mov r0, #1
    bl f
    swi #2
    mov r0, #5
    bl g
    swi #2
    mov r0, #0
    swi #0
f:
    push {r4, lr}
    cmp r0, #2
    bgt f_big
    mov r1, #1
    add r2, r0, #7
    eor r3, r2, r0
    orr r0, r3, #1
    sub r0, r0, r1
    b f_done
f_big:
    mov r1, #9
    add r2, r0, #7
    eor r3, r2, r0
    orr r0, r3, #1
    sub r0, r0, r1
    b f_done
f_done:
    mov r4, #6
    add r4, r4, #11
    eor r4, r4, #5
    add r0, r0, r4
    pop {r4, pc}
g:
    push {r4, lr}
    add r0, r0, #1
    mov r4, #6
    add r4, r4, #11
    eor r4, r4, #5
    add r0, r0, r4
    pop {r4, pc}
"""


def test_crossjump_split_mid_function(monkeypatch):
    applied = _assert_same_as_reference(
        lambda: module_from_source(CROSSJUMP_SPLIT_PROGRAM), monkeypatch)
    splits = [
        (i, candidate, blocks)
        for i, (candidate, blocks) in enumerate(applied)
        if candidate.method is ExtractionMethod.CROSSJUMP
    ]
    assert splits
    first, candidate, blocks = splits[0]
    func, bi, start = candidate.runs[0]  # the survivor, which is split
    assert start > 0
    assert bi < blocks[func] - 1
    assert first < len(applied) - 1  # a later round reads moved blocks
    module = module_from_source(CROSSJUMP_SPLIT_PROGRAM)
    run_sfx(module)
    out = run_image(layout(module))
    reference = run_asm(CROSSJUMP_SPLIT_PROGRAM)
    assert (out.exit_code, out.output) == (
        reference.exit_code, reference.output)
