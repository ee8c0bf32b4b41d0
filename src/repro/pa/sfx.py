"""SFX: the suffix-trie baseline (Table 1's traditional PA).

Implements the classical sequence-based procedural abstraction of
Fraser, Myers and Wendt [22, 23]: the program is treated as flat
instruction sequences (we respect basic-block boundaries, as the later
fingerprint-based refinements do [18]); repeated subsequences are
detected, the most profitable one is outlined, and the process repeats.

Instead of materializing a suffix trie, an n-gram index of all runs up
to the fragment-size cap serves as the repeated-substring index.  One
index lives for a whole :func:`run_sfx` call, since a round rewrites
only a few blocks.  After each round's analyses (CFG, lr liveness, the
sp-fragile set), it re-indexes a block whose object or instructions
changed: blocks the last rewrite touched, both halves of a cross-jump
split and the blocks after it (their index shifted), and newly
outlined functions.  It then re-scores each gram whose occurrence set
changed or one of whose blocks entered or left the lr-live set, and
every gram when the fragile set changed.  A gram's score depends only
on its occurrences, their blocks' lr-live flags and the fragile set,
so the best score under :meth:`_SeqCandidate.sort_key` (unique per
gram) is the one a full rebuild would pick.

Crucially, and by design, SFX only matches *contiguous,
identically-ordered* runs: two occurrences that compute the same thing
in a different instruction order are invisible to it.  That blindness
is exactly what the paper's graph-based approach removes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from operator import itemgetter
from typing import Dict, FrozenSet, Iterator, List, Optional, Set, Tuple

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
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.verify.cfg import BlockKey, build_module_cfg
from repro.verify.dataflow import AnalysisMemo

#: an n-gram: the texts of a contiguous instruction run
Gram = Tuple[str, ...]
#: one n-gram occurrence: ``(function, block index, start)``
Occurrence = Tuple[str, int, int]


@dataclass
class SFXConfig:
    """Knobs of the sequence-based baseline."""

    min_len: int = 2
    max_len: int = 8
    max_rounds: int = 10_000


@dataclass
class _SeqCandidate:
    insns: Tuple[Instruction, ...]
    method: ExtractionMethod
    runs: List[Occurrence]
    benefit: int

    def sort_key(self) -> tuple:
        return (-self.benefit, -len(self.insns),
                tuple(str(i) for i in self.insns))


class _IndexedBlock:
    """One eligible block as the index last saw it."""

    __slots__ = ("block", "insns", "texts", "lr_last")

    def __init__(self, block: BasicBlock):
        self.block = block
        #: the instruction list at indexing time (a copy: ``_apply``
        #: rewrites ``block.instructions`` in place)
        self.insns = list(block.instructions)
        self.texts = [str(insn) for insn in self.insns]
        #: the last position that reads ``lr`` (``bl`` aside), or -1
        self.lr_last = max(
            (i for i, insn in enumerate(self.insns)
             if insn.mnemonic != "bl" and LR in insn.regs_read()),
            default=-1,
        )


class _NGramIndex:
    """The repeated-n-gram index of one :func:`run_sfx` call.

    It maps each eligible block, keyed ``(function, block index)``, to
    its n-grams, and each n-gram text to its occurrences and its last
    score; :meth:`collect` refreshes it as the module docstring says.
    """

    def __init__(self, config: SFXConfig):
        self.config = config
        self.blocks: Dict[BlockKey, _IndexedBlock] = {}
        self.occurrences: Dict[Gram, List[Occurrence]] = {}
        #: gram -> (sort key, candidate), for the profitable grams only
        self.scores: Dict[Gram, Tuple[tuple, _SeqCandidate]] = {}
        self.lr_live: Set[BlockKey] = set()
        self.fragile: Optional[FrozenSet[str]] = None

    def collect(self, module: Module,
                memo: AnalysisMemo) -> Optional[_SeqCandidate]:
        """Bring the index up to *module* and return the best candidate."""
        cfg = build_module_cfg(module)
        lr_live = lr_live_out_blocks(module, memo, cfg)
        fragile = sp_fragile_functions(module, memo, cfg)
        dirty = self._reindex(module)
        for key in self.lr_live ^ lr_live:
            entry = self.blocks.get(key)
            if entry is not None:
                dirty.update(gram for gram, __ in self._grams(entry))
        self.lr_live = lr_live
        if fragile != self.fragile:
            dirty.update(self.occurrences)
        self.fragile = fragile
        self._rescore(module, dirty)
        if not self.scores:
            return None
        return min(self.scores.values(), key=itemgetter(0))[1]

    def _reindex(self, module: Module) -> Set[Gram]:
        """Re-index changed blocks; return the grams they touched."""
        dirty: Set[Gram] = set()
        stale = set(self.blocks)
        indexed = 0
        for func in module.functions:
            if func.pa_exempt:
                continue
            for bi, block in enumerate(func.blocks):
                key = (func.name, bi)
                stale.discard(key)
                entry = self.blocks.get(key)
                if (entry is not None and entry.block is block
                        and entry.insns == block.instructions):
                    continue
                if entry is not None:
                    self._drop(key, entry, dirty)
                indexed += self._add(key, block, dirty)
        for key in stale:
            self._drop(key, self.blocks.pop(key), dirty)
        _TELEMETRY.count("pa.sfx.indexed", indexed)
        return dirty

    def _grams(self, entry: _IndexedBlock) -> Iterator[Tuple[Gram, int]]:
        """``(gram, start)`` of every n-gram occurrence in *entry*."""
        texts = entry.texts
        n = len(texts)
        for length in range(self.config.min_len, self.config.max_len + 1):
            for start in range(0, n - length + 1):
                yield tuple(texts[start:start + length]), start

    def _add(self, key: BlockKey, block: BasicBlock,
             dirty: Set[Gram]) -> int:
        entry = self.blocks[key] = _IndexedBlock(block)
        occurrences = self.occurrences
        added = 0
        for gram, start in self._grams(entry):
            occurrences.setdefault(gram, []).append((*key, start))
            dirty.add(gram)
            added += 1
        return added

    def _drop(self, key: BlockKey, entry: _IndexedBlock,
              dirty: Set[Gram]) -> None:
        occurrences = self.occurrences
        for gram, start in self._grams(entry):
            runs = occurrences[gram]
            runs.remove((*key, start))
            if not runs:
                del occurrences[gram]
            dirty.add(gram)

    def _rescore(self, module: Module, dirty: Set[Gram]) -> None:
        # the sample instructions come from the first occurrence in
        # module order, which is not the name order runs sort by
        order = {func.name: i for i, func in enumerate(module.functions)}
        scored = 0
        for gram in dirty:
            self.scores.pop(gram, None)
            occurrences = self.occurrences.get(gram)
            if occurrences is None or len(occurrences) < 2:
                continue
            scored += 1
            candidate = self._score(gram, occurrences, order)
            if candidate is not None:
                self.scores[gram] = (candidate.sort_key(), candidate)
        _TELEMETRY.count("pa.sfx.scored", scored)

    def _score(self, gram: Gram, occurrences: List[Occurrence],
               order: Dict[str, int]) -> Optional[_SeqCandidate]:
        length = len(gram)
        func, bi, start = min(
            occurrences, key=lambda run: (order[run[0]], run[1], run[2])
        )
        insns = tuple(self.blocks[func, bi].insns[start:start + length])
        method = classify_fragment(insns, self.fragile)
        if method is None:
            return None
        runs = self._filter_runs(method, sorted(occurrences), length)
        n = len(runs)
        if n < 2:
            return None
        if method is ExtractionMethod.CALL:
            benefit = call_benefit(length, n, call_overhead(insns))
        else:
            benefit = crossjump_benefit(length, n)
        if benefit <= 0:
            return None
        return _SeqCandidate(insns, method, runs, benefit)

    def _filter_runs(self, method: ExtractionMethod,
                     occurrences: List[Occurrence],
                     length: int) -> List[Occurrence]:
        """Legality filtering + greedy non-overlap selection, over
        *occurrences* in ``(function, block, start)`` order."""
        runs: List[Occurrence] = []
        last_end: Dict[BlockKey, int] = {}
        for run in occurrences:
            func, bi, start = run
            block_key = (func, bi)
            if last_end.get(block_key, -1) > start:
                continue  # overlaps the previously chosen run
            end = start + length
            entry = self.blocks[block_key]
            if method is ExtractionMethod.CALL:
                # the inserted bl clobbers lr: lr must be dead past the
                # run, both within this block and across blocks (shared
                # tails!)
                if block_key in self.lr_live or entry.lr_last >= end:
                    continue
            elif end != len(entry.insns):
                continue  # cross jump: the run must end the block
            runs.append(run)
            last_end[block_key] = end
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
        by_block: Dict[BlockKey, List[int]] = {}
        for func_name, bi, start in candidate.runs:
            by_block.setdefault((func_name, bi), []).append(start)
        for (func_name, bi), starts in by_block.items():
            block = module.function(func_name).blocks[bi]
            for start in sorted(starts, reverse=True):
                block.instructions[start:start + length] = [call]
        return name

    # cross jump: first run survives as the shared tail
    label = module.fresh_label("sfxtail")
    (func_name, bi, start), rest = candidate.runs[0], candidate.runs[1:]
    branch = Instruction("b", (LabelRef(label),))
    for run_func, run_bi, run_start in rest:
        block = module.function(run_func).blocks[run_bi]
        block.instructions[run_start:run_start + length] = [branch]
    func = module.function(func_name)
    old = func.blocks[bi]
    head = BasicBlock(labels=old.labels, instructions=old.instructions[:start])
    tail = BasicBlock(labels=[label], instructions=old.instructions[start:])
    func.blocks[bi:bi + 1] = [head, tail]
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
    memo = AnalysisMemo()
    index = _NGramIndex(config)
    for round_index in range(config.max_rounds):
        candidate = index.collect(module, memo)
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
