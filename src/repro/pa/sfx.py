"""SFX: the suffix-trie baseline (Table 1's traditional PA).

Implements the classical sequence-based procedural abstraction of
Fraser, Myers and Wendt [22, 23]: the program is treated as flat
instruction sequences (we respect basic-block boundaries, as the later
fingerprint-based refinements do [18]); repeated subsequences are
detected, the most profitable one is outlined, and the process repeats.

Instead of materializing a suffix trie, each round enumerates all
n-grams up to the fragment-size cap — an equivalent repeated-substring
index that is simpler and O(blocks × max_len) per round.  Crucially, and
by design, SFX only matches *contiguous, identically-ordered* runs: two
occurrences that compute the same thing in a different instruction order
are invisible to it.  That blindness is exactly what the paper's
graph-based approach removes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.isa.instructions import Instruction
from repro.isa.operands import LabelRef, Reg, RegList
from repro.isa.registers import LR, PC

from repro.binary.program import BasicBlock, Function, Module
from repro.pa.driver import ExtractionRecord, PAResult
from repro.pa.fragments import call_benefit, call_overhead, crossjump_benefit
from repro.pa.legality import (
    ExtractionMethod,
    classify_fragment,
    sp_fragile_functions,
)
from repro.pa.liveness import lr_live_out_blocks
from repro.verify.absint import AuditMemo


@dataclass
class SFXConfig:
    """Knobs of the sequence-based baseline."""

    min_len: int = 2
    max_len: int = 8
    max_rounds: int = 10_000


@dataclass
class _Run:
    """One occurrence: a contiguous run inside a block."""

    func: str
    block_index: int
    start: int

    def key(self) -> tuple:
        return (self.func, self.block_index, self.start)


@dataclass
class _SeqCandidate:
    insns: Tuple[Instruction, ...]
    method: ExtractionMethod
    runs: List[_Run]
    benefit: int

    def sort_key(self) -> tuple:
        return (-self.benefit, -len(self.insns),
                tuple(str(i) for i in self.insns))


def _eligible_blocks(module: Module):
    for func in module.functions:
        if func.pa_exempt:
            continue
        for bi, block in enumerate(func.blocks):
            yield func.name, bi, block


def _lr_read_positions(block: BasicBlock) -> List[int]:
    return [
        i for i, insn in enumerate(block.instructions)
        if insn.mnemonic != "bl" and LR in insn.regs_read()
    ]


def _collect_candidates(module: Module, config: SFXConfig,
                        audit_memo: AuditMemo):
    """Index all repeated n-grams and score them."""
    lr_live = lr_live_out_blocks(module)
    fragile = sp_fragile_functions(module, audit_memo)
    grams: Dict[Tuple[str, ...], List[Tuple[_Run, BasicBlock]]] = {}
    for func_name, bi, block in _eligible_blocks(module):
        texts = [str(insn) for insn in block.instructions]
        n = len(texts)
        for length in range(config.min_len, config.max_len + 1):
            for start in range(0, n - length + 1):
                key = tuple(texts[start:start + length])
                grams.setdefault(key, []).append(
                    (_Run(func_name, bi, start), block)
                )

    best: Optional[_SeqCandidate] = None
    for key, occurrences in grams.items():
        if len(occurrences) < 2:
            continue
        length = len(key)
        sample_block = occurrences[0][1]
        sample_start = occurrences[0][0].start
        insns = tuple(
            sample_block.instructions[sample_start:sample_start + length]
        )
        method = classify_fragment(insns, fragile)
        if method is None:
            continue
        runs = _filter_runs(insns, method, occurrences, length, lr_live)
        n = len(runs)
        if n < 2:
            continue
        if method is ExtractionMethod.CALL:
            benefit = call_benefit(length, n, call_overhead(insns))
        else:
            benefit = crossjump_benefit(length, n)
        if benefit <= 0:
            continue
        candidate = _SeqCandidate(insns, method, runs, benefit)
        if best is None or candidate.sort_key() < best.sort_key():
            best = candidate
    return best


def _filter_runs(insns, method, occurrences, length, lr_live) -> List[_Run]:
    """Legality filtering + greedy non-overlap selection."""
    runs: List[_Run] = []
    last_end: Dict[Tuple[str, int], int] = {}
    for run, block in sorted(occurrences, key=lambda rb: rb[0].key()):
        block_key = (run.func, run.block_index)
        if last_end.get(block_key, -1) > run.start:
            continue  # overlaps the previously chosen run
        if method is ExtractionMethod.CALL:
            # the inserted bl clobbers lr: lr must be dead past the run,
            # both within this block and across blocks (shared tails!)
            if block_key in lr_live:
                continue
            if any(p >= run.start + length
                   for p in _lr_read_positions(block)):
                continue
            # a call must not swallow the block terminator
            end = run.start + length
            if end > len(block.instructions):
                continue
        else:
            # cross jump: the run must end the block
            if run.start + length != len(block.instructions):
                continue
        runs.append(run)
        last_end[block_key] = run.start + length
    return runs


def _apply(module: Module, candidate: _SeqCandidate) -> str:
    length = len(candidate.insns)
    if candidate.method is ExtractionMethod.CALL:
        name = module.fresh_label("sfx")
        contains_call = any(i.is_call for i in candidate.insns)
        body: List[Instruction] = []
        if contains_call:
            body.append(Instruction("push", (RegList((LR,)),)))
        body.extend(candidate.insns)
        if contains_call:
            body.append(Instruction("pop", (RegList((PC,)),)))
        else:
            body.append(Instruction("mov", (Reg(PC), Reg(LR))))
        module.functions.append(
            Function(name=name, blocks=[BasicBlock(instructions=body)])
        )
        call = Instruction("bl", (LabelRef(name),))
        by_block: Dict[Tuple[str, int], List[int]] = {}
        for run in candidate.runs:
            by_block.setdefault((run.func, run.block_index), []).append(
                run.start
            )
        for (func_name, bi), starts in by_block.items():
            block = module.function(func_name).blocks[bi]
            for start in sorted(starts, reverse=True):
                block.instructions[start:start + length] = [call]
        return name

    # cross jump: first run survives as the shared tail
    label = module.fresh_label("sfxtail")
    survivor, rest = candidate.runs[0], candidate.runs[1:]
    branch = Instruction("b", (LabelRef(label),))
    for run in rest:
        block = module.function(run.func).blocks[run.block_index]
        block.instructions[run.start:run.start + length] = [branch]
    func = module.function(survivor.func)
    old = func.blocks[survivor.block_index]
    head = BasicBlock(
        labels=old.labels, instructions=old.instructions[:survivor.start]
    )
    tail = BasicBlock(
        labels=[label], instructions=old.instructions[survivor.start:]
    )
    func.blocks[survivor.block_index:survivor.block_index + 1] = [head, tail]
    return label


def run_sfx(module: Module, config: Optional[SFXConfig] = None) -> PAResult:
    """Run the suffix-trie baseline to a fixpoint on *module*."""
    config = config or SFXConfig()
    started = time.perf_counter()
    result = PAResult(
        module=module,
        instructions_before=module.num_instructions,
        instructions_after=module.num_instructions,
    )
    audit_memo = AuditMemo()
    for round_index in range(config.max_rounds):
        candidate = _collect_candidates(module, config, audit_memo)
        if candidate is None:
            break
        before = module.num_instructions
        symbol = _apply(module, candidate)
        after = module.num_instructions
        if after != before - candidate.benefit:
            raise AssertionError(
                f"SFX benefit mismatch: predicted {candidate.benefit}, "
                f"actual {before - after}"
            )
        result.records.append(
            ExtractionRecord(
                round=round_index,
                method=candidate.method.value,
                size=len(candidate.insns),
                occurrences=len(candidate.runs),
                benefit=candidate.benefit,
                new_symbol=symbol,
                instructions=tuple(str(i) for i in candidate.insns),
            )
        )
        result.rounds = round_index + 1
    result.instructions_after = module.num_instructions
    result.elapsed_seconds = time.perf_counter() - started
    return result
