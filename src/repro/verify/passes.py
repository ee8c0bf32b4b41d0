"""Concrete dataflow passes over the module CFG.

Three analyses, all built on the generic solver of
:mod:`repro.verify.dataflow`:

* :class:`LivenessAnalysis` — full per-resource liveness (all sixteen
  registers plus the NZCV flags), backward.  :func:`live_out_blocks`
  is its whole-module single-register projection; the lr check that
  patched the rijndael miscompile (:mod:`repro.pa.liveness`) solves
  the same analysis per CFG component.
* :class:`MaybeUndefAnalysis` — forward "possibly undefined" resource
  tracking.  Function entries start with the flags undefined (the AAPCS
  makes no promise about NZCV), and a call leaves the caller-saved
  scratch registers ``r1``-``r3``/``r12`` and the flags holding callee
  garbage.
* :class:`FlagDefAnalysis` — condition-flag def-use: which flag-setting
  sites reach each flag consumer.  The definition sites distinguish
  real setters from call clobbers and from the undefined entry state,
  which is what the linter's ``undefined-flag-read`` rule keys on.

Stack heights are not a pass here: :mod:`repro.verify.absint` proves
them, for the legality gate and for every lint stack rule alike.

Resources are register numbers ``0..15`` plus the string ``"flags"``;
memory is deliberately not a liveness resource here (the DFG builder
owns memory ordering).
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.binary.program import BasicBlock, Module
from repro.dfg.builder import FLAGS, MEM, _accesses
from repro.isa.instructions import Instruction
from repro.telemetry import GLOBAL as _TELEMETRY

from repro.verify.cfg import BlockKey, ModuleCFG, build_module_cfg
from repro.verify.dataflow import (
    BACKWARD,
    FORWARD,
    Analysis,
    DataflowResult,
    solve,
)

Resource = object  # int register number or the FLAGS string

EMPTY: FrozenSet[Resource] = frozenset()

#: Registers a ``bl`` leaves holding callee garbage (caller-saved
#: scratch minus the return-value register).
CALL_CLOBBERED: FrozenSet[Resource] = frozenset({1, 2, 3, 12, FLAGS})


def insn_accesses(insn: Instruction) -> Tuple[Set[Resource], Set[Resource]]:
    """(reads, writes) register/flag resources — the DFG builder's
    model with the memory pseudo-resource filtered out."""
    reads, writes = _accesses(insn)
    reads.discard(MEM)
    writes.discard(MEM)
    return reads, writes


# ----------------------------------------------------------------------
# liveness
# ----------------------------------------------------------------------
class LivenessAnalysis(Analysis):
    """Backward may-liveness of registers and flags.

    A write kills only when unconditional (a predicated write may not
    execute); every read — including the implicit flags read of a
    predicated instruction — generates.  Nothing is assumed live at CFG
    exits: a return's ``lr``/``r0`` reads are explicit in the
    instruction model, so the boundary stays empty.
    """

    direction = BACKWARD

    def boundary(self, cfg: ModuleCFG, key: BlockKey) -> FrozenSet[Resource]:
        return EMPTY

    def initial(self, cfg: ModuleCFG, key: BlockKey) -> FrozenSet[Resource]:
        return EMPTY

    def join(self, a: FrozenSet[Resource],
             b: FrozenSet[Resource]) -> FrozenSet[Resource]:
        return a | b

    def transfer(self, key: BlockKey, block: BasicBlock,
                 live_out: FrozenSet[Resource]) -> FrozenSet[Resource]:
        live = set(live_out)
        for insn in reversed(block.instructions):
            reads, writes = insn_accesses(insn)
            if not insn.is_conditional:
                live -= writes
            live |= reads
        return frozenset(live)


def liveness(module: Module,
             cfg: Optional[ModuleCFG] = None) -> DataflowResult:
    """Solve full liveness; facts are frozensets of live resources."""
    cfg = cfg or build_module_cfg(module)
    with _TELEMETRY.span("verify.pass", analysis="liveness"):
        return solve(cfg, LivenessAnalysis())


def live_out_blocks(module: Module, resource: Resource,
                    cfg: Optional[ModuleCFG] = None) -> Set[BlockKey]:
    """Blocks whose *resource* is consumed on some path after them."""
    result = liveness(module, cfg)
    return {
        key for key, live in result.out_facts.items() if resource in live
    }


# ----------------------------------------------------------------------
# possibly-undefined resources
# ----------------------------------------------------------------------
class MaybeUndefAnalysis(Analysis):
    """Forward may-analysis of undefined registers and flags.

    At a function entry every register holds the caller's value — a
    legitimate thing to read (prologues save callee-saved registers by
    reading them) — but the flags are undefined.  After a call, the
    flags and the non-result scratch registers hold callee garbage.  A
    conditional write does not definitely define.
    """

    direction = FORWARD

    def boundary(self, cfg: ModuleCFG, key: BlockKey) -> FrozenSet[Resource]:
        return frozenset({FLAGS})

    def initial(self, cfg: ModuleCFG, key: BlockKey) -> FrozenSet[Resource]:
        return EMPTY

    def join(self, a: FrozenSet[Resource],
             b: FrozenSet[Resource]) -> FrozenSet[Resource]:
        return a | b

    def transfer(self, key: BlockKey, block: BasicBlock,
                 undef: FrozenSet[Resource]) -> FrozenSet[Resource]:
        state = set(undef)
        for insn in block.instructions:
            step_undef(state, insn)
        return frozenset(state)


def step_undef(state: Set[Resource], insn: Instruction) -> None:
    """Advance the possibly-undefined set across one instruction."""
    __, writes = insn_accesses(insn)
    clobbers = call_clobbers(insn)
    if not insn.is_conditional:
        state -= writes - clobbers
    state |= clobbers


def call_clobbers(insn: Instruction) -> FrozenSet[Resource]:
    """Resources an instruction leaves in an unspecified state."""
    if insn.is_call:
        return CALL_CLOBBERED
    if insn.mnemonic == "swi":
        return frozenset({FLAGS})
    return EMPTY


def maybe_undef(module: Module,
                cfg: Optional[ModuleCFG] = None) -> DataflowResult:
    cfg = cfg or build_module_cfg(module)
    with _TELEMETRY.span("verify.pass", analysis="maybe_undef"):
        return solve(cfg, MaybeUndefAnalysis())


# ----------------------------------------------------------------------
# condition-flag def-use
# ----------------------------------------------------------------------
#: Flag definition sites.  ``("set", func, block, index)`` is a real
#: flag-setting instruction *or* a call to a flag-writing callee,
#: ``("clobber", func, block, index)`` a call to a callee outside the
#: module (NZCV unspecified per the AAPCS), ``("undef", func)`` the
#: entry state.
FlagDef = Tuple

UseSite = Tuple[str, int, int]

#: Per-function flag effect: "none" (NZCV provably preserved), "may"
#: (some path writes), "must" (every return is preceded by a write).
FlagEffect = str


class FlagDefinedAnalysis(Analysis):
    """Forward must-analysis: are the flags definitely written since
    function entry?  Needed to decide whether a callee *must* define
    NZCV before returning (the common case for outlined comparison
    fragments)."""

    direction = FORWARD

    def __init__(self, summaries: Dict[str, FlagEffect]) -> None:
        self.summaries = summaries

    def boundary(self, cfg: ModuleCFG, key: BlockKey) -> bool:
        return False

    def initial(self, cfg: ModuleCFG, key: BlockKey) -> bool:
        return True  # optimistic for a must-analysis

    def join(self, a: bool, b: bool) -> bool:
        return a and b

    def transfer(self, key: BlockKey, block: BasicBlock,
                 defined: bool) -> bool:
        for insn in block.instructions:
            defined = step_flag_defined(defined, insn, self.summaries)
        return defined


def step_flag_defined(defined: bool, insn: Instruction,
                      summaries: Dict[str, FlagEffect]) -> bool:
    """Advance the "flags definitely written" fact by one instruction."""
    if insn.writes_flags() and not insn.is_conditional:
        return True
    if insn.is_call:
        effect = summaries.get(insn.label_target)
        if effect == "must":
            return True
        if effect is None:
            return False  # unknown callee: NZCV unspecified
        # "may"/"none": whatever held before still holds (the callee's
        # write, when it happens, is itself a definition)
    return defined


def flag_effect_summaries(
    module: Module, cfg: Optional[ModuleCFG] = None, max_iterations: int = 5
) -> Dict[str, FlagEffect]:
    """Per-function NZCV effect, iterated over the call graph.

    The simulator's ``swi`` syscalls never touch NZCV, and every callee
    in a linted module is visible, so calls can be classified precisely:
    an outlined helper whose body carries no flag setter is transparent,
    and one whose body unconditionally compares *defines* the flags its
    caller then branches on — both shapes the extractor produces on
    purpose.
    """
    cfg = cfg or build_module_cfg(module)
    names = {func.name for func in module.functions}
    reach: Dict[str, Set[BlockKey]] = {
        func.name: (cfg.reachable([(func.name, 0)]) if func.blocks
                    else set())
        for func in module.functions
    }
    summaries: Dict[str, FlagEffect] = {name: "none" for name in names}
    for __ in range(max_iterations):
        result = solve(cfg, FlagDefinedAnalysis(summaries))
        updated: Dict[str, FlagEffect] = {}
        for func in module.functions:
            may = False
            for key in reach[func.name]:
                for insn in cfg.blocks[key].instructions:
                    if insn.writes_flags():
                        may = True
                    elif insn.is_call:
                        target = insn.label_target
                        if target not in names \
                                or summaries[target] != "none":
                            may = True
            if not may:
                updated[func.name] = "none"
                continue
            must = True
            for key in reach[func.name]:
                defined = result.in_facts[key]
                for insn in cfg.blocks[key].instructions:
                    if insn.is_return and not defined:
                        must = False
                    defined = step_flag_defined(defined, insn, summaries)
            updated[func.name] = "must" if must else "may"
        if updated == summaries:
            break
        summaries = updated
    return summaries


class FlagDefAnalysis(Analysis):
    """Forward reaching-definitions restricted to the NZCV flags."""

    direction = FORWARD

    def __init__(self, summaries: Dict[str, FlagEffect]) -> None:
        self.summaries = summaries

    def boundary(self, cfg: ModuleCFG, key: BlockKey) -> FrozenSet[FlagDef]:
        return frozenset({("undef", key[0])})

    def initial(self, cfg: ModuleCFG, key: BlockKey) -> FrozenSet[FlagDef]:
        return frozenset()

    def join(self, a: FrozenSet[FlagDef],
             b: FrozenSet[FlagDef]) -> FrozenSet[FlagDef]:
        return a | b

    def transfer(self, key: BlockKey, block: BasicBlock,
                 defs: FrozenSet[FlagDef]) -> FrozenSet[FlagDef]:
        state = set(defs)
        for index, insn in enumerate(block.instructions):
            step_flag_defs(state, key, index, insn, self.summaries)
        return frozenset(state)


def step_flag_defs(state: Set[FlagDef], key: BlockKey, index: int,
                   insn: Instruction,
                   summaries: Dict[str, FlagEffect]) -> None:
    """Advance the reaching flag-definition set across one instruction.

    ``swi`` is transparent (the simulator's syscalls preserve NZCV);
    calls are classified by *summaries* — transparent, a definition, or
    (for callees outside the module) a clobber.
    """
    if insn.writes_flags():
        site = ("set", key[0], key[1], index)
        if insn.is_conditional:
            state.add(site)      # may execute: old defs survive
        else:
            state.clear()
            state.add(site)
    elif insn.is_call:
        effect = summaries.get(insn.label_target)
        if effect == "must":
            state.clear()
            state.add(("set", key[0], key[1], index))
        elif effect == "may":
            state.add(("set", key[0], key[1], index))
        elif effect is None:
            state.clear()
            state.add(("clobber", key[0], key[1], index))
        # "none": the callee provably preserves NZCV


def flag_def_use(
    module: Module, cfg: Optional[ModuleCFG] = None
) -> Dict[UseSite, FrozenSet[FlagDef]]:
    """Def-use chains for the flags: use site -> reaching definitions."""
    cfg = cfg or build_module_cfg(module)
    summaries = flag_effect_summaries(module, cfg)
    with _TELEMETRY.span("verify.pass", analysis="flag_def_use"):
        result = solve(cfg, FlagDefAnalysis(summaries))
    chains: Dict[UseSite, FrozenSet[FlagDef]] = {}
    for key in cfg.keys:
        state = set(result.in_facts[key])
        for index, insn in enumerate(cfg.blocks[key].instructions):
            if insn.reads_flags():
                chains[(key[0], key[1], index)] = frozenset(state)
            step_flag_defs(state, key, index, insn, summaries)
    return chains

