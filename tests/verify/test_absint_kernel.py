"""The absint block kernel is exact.

:class:`~repro.verify.absint._Machine` steps one mutable register list
and frame dict across a whole block, joining the pre-state back in
after a conditional instruction (a conditional return keeps just the
pre-state), and the extraction walk reads every return's height and
every ``sp`` move off it in the same pass.  The reference below is the
code it replaced: a fold that builds one immutable :class:`AbsState`
per instruction (``join_states`` for conditional ones), and a walk that
re-steps a block's prefix for every return in it.  The memo tests of
``test_absint_memo.py`` run through :class:`AbsIntAnalysis` on both
sides, so only a reference like this one can catch a kernel bug.
"""

import pytest

from repro.binary.program import BasicBlock, Function, Module
from repro.isa.assembler import parse_instruction
from repro.minicc.driver import compile_to_module
from repro.pa.driver import PAConfig, run_pa
from repro.pa.sfx import run_sfx
from repro.variance.genprog import generate_source, sized_config
from repro.verify import absint
from repro.verify.absint import (
    RETADDR_CLOBBER,
    AbsIntAnalysis,
    FuncSummary,
    _BlockStats,
    _set_sp,
    audit_module,
)
from repro.verify.cfg import ModuleCFG
from repro.verify.dataflow import DataflowResult
from repro.verify.domains import (
    RETADDR,
    TOP,
    AbsState,
    StackAddr,
    allocate,
    entry_state,
    frame_from_dict,
    join_states,
)
from repro.workloads import PROGRAMS, compile_workload


def reference_execute(state, insn, summaries=None, sink=None):
    """The immutable state once *insn* has executed."""
    regs = list(state.regs)
    frame = dict(state.frame)
    escaped = [state.escaped]
    absint._step_core(regs, frame, insn, summaries, escaped, sink)
    return AbsState(regs=tuple(regs), frame=frame_from_dict(frame),
                    escaped=escaped[0])


def reference_step(state, insn, summaries=None, sink=None):
    """Advance one immutable state across one instruction."""
    if state.bottom:
        return state
    after = reference_execute(state, insn, summaries, sink)
    if not insn.is_conditional:
        return after
    if insn.is_return:
        return state  # only the not-taken path falls through
    return join_states(state, after)


def reference_transfer(state, instructions, summaries):
    for insn in instructions:
        state = reference_step(state, insn, summaries)
    return state


def reference_return_height(state, block, upto, summaries):
    """Height at the return *upto*, re-stepping the block's prefix."""
    for insn in block.instructions[:upto]:
        state = reference_step(state, insn, summaries)
    return reference_execute(state, block.instructions[upto],
                             summaries).height


def reference_walk(cfg, result, summaries):
    """Events and per-block stats, one immutable state per step."""
    events = []
    stats = {}
    lost = set()
    return_sites = {}
    for key in cfg.keys:
        state = result.in_facts[key]
        if state.bottom:
            continue
        block = cfg.blocks[key]
        sink = absint._Sink()
        heights = []
        retaddrs = set()
        for index, insn in enumerate(block.instructions):
            h = state.height
            heights.append(h)
            retaddrs.update(d for d, v in state.frame if v is RETADDR)
            done = reference_execute(state, insn, summaries).height
            sink.site = (key[0], key[1], index)
            state = reference_step(state, insn, summaries, sink)
            if h is not None and done is None and key[0] not in lost:
                lost.add(key[0])
                sink.emit(absint.HEIGHT_LOST,
                          f"{insn} loses track of sp; stack checks are "
                          f"suppressed downstream")
            elif h is not None and done is not None and state.height is None:
                sink.emit(absint.HEIGHT_MISMATCH,
                          f"{insn} moves sp on one path only (height {h} "
                          f"or {done})")
            elif h is not None and done is not None and done < min(h, 0):
                sink.emit(absint.NEGATIVE_HEIGHT,
                          f"{insn} raises sp {-done} bytes above its "
                          f"function-entry value", done)
            if insn.is_return and done is not None:
                return_sites.setdefault(key[0], []).append(
                    (key[1], index, done))
            if insn.is_return and insn.is_conditional:
                heights.append(done)
        heights.append(state.height)
        known = [h for h in heights if h is not None]
        events.extend(sink.events)
        stats[key] = _BlockStats(
            height_known=len(known) == len(heights),
            max_height=max([0] + known),
            has_negative=any(h < 0 for h in known),
            retaddrs=tuple(sorted(retaddrs)),
            return_heights=tuple(
                reference_return_height(result.in_facts[key], block, index,
                                        summaries)
                for index, insn in enumerate(block.instructions)
                if insn.is_return
            ),
        )
    for name, sites in return_sites.items():
        seen = sorted({height for __, __, height in sites})
        block, index, __ = sites[0]
        if len(seen) > 1:
            events.append(absint.AbsEvent(
                absint.RETURN_MISMATCH, name, block, index,
                f"returns of this function are reached at stack heights "
                f"{seen}"))
        elif seen != [0]:
            events.append(absint.AbsEvent(
                absint.NONZERO_RETURN, name, block, index,
                f"function consistently returns at height {seen[0]}; "
                f"legitimate only if every call site compensates",
                seen[0]))
    return events, stats


class KernelCheck:
    """Counts what the kernel was checked on; collects mismatches."""

    def __init__(self):
        self.pairs = 0
        self.conditional = 0
        self.calls = 0
        self.walks = 0
        self.returns = 0
        self.mismatches = []


@pytest.fixture
def checked_kernel(monkeypatch):
    """Check every transfer and walk against the reference.

    Mismatches are collected, not raised: PA may catch an exception
    raised inside its legality gate.
    """
    check = KernelCheck()
    real_transfer = AbsIntAnalysis.transfer
    real_walk = absint._walk_blocks

    def transfer(self, key, block, state):
        got = real_transfer(self, key, block, state)
        want = reference_transfer(state, block.instructions, self.summaries)
        check.pairs += 1
        check.conditional += any(i.is_conditional
                                 for i in block.instructions)
        check.calls += any(i.mnemonic == "bl" for i in block.instructions)
        if got != want:
            check.mismatches.append(("transfer", key, state, got, want))
        return got

    def walk(cfg, result, summaries):
        got = real_walk(cfg, result, summaries)
        want = reference_walk(cfg, result, summaries)
        check.walks += 1
        check.returns += sum(len(s.return_heights) for s in got[1].values())
        if got != want:
            check.mismatches.append(("walk", cfg.keys[:1], got, want))
        return got

    monkeypatch.setattr(AbsIntAnalysis, "transfer", transfer)
    monkeypatch.setattr(absint, "_walk_blocks", walk)
    return check


def test_kernel_matches_the_fold_on_every_solver_input(checked_kernel):
    """Every (block, in-fact) pair the solver sees in an SFX run of all
    eight programs and of four generated ones of about 720 instructions,
    and an Edgar run of crc and search.  The constant lattice settles
    each block in a few visits, so the generated programs supply the
    volume that loop trips used to."""
    for name in PROGRAMS:
        assert run_sfx(compile_workload(name)).saved > 0
    for seed in range(1, 5):
        module = compile_to_module(generate_source(sized_config(seed, 720)))
        assert run_sfx(module).saved > 0
    for name in ("crc", "search"):
        run_pa(compile_workload(name), PAConfig(miner="edgar"))
    assert checked_kernel.mismatches == []
    assert checked_kernel.pairs > 10_000
    assert checked_kernel.conditional > 1_000
    assert checked_kernel.calls > 1_000
    assert checked_kernel.walks > 100
    assert checked_kernel.returns > 100


def _block(*lines):
    return BasicBlock(instructions=[parse_instruction(line)
                                    for line in lines])


#: Hand-built blocks around what the kernel's in-place join touches.
BLOCKS = {
    "conditional push, pop {pc} and sub sp": _block(
        "cmp r0, #0", "pusheq {r4, lr}", "subne sp, sp, #8",
        "str r1, [sp]", "popeq {r4, pc}", "add sp, sp, #8"),
    "conditional store over the saved lr": _block(
        "push {r4, lr}", "cmp r0, #1", "streq r0, [sp]",
        "strne r1, [sp, #4]", "ldr r2, [sp]", "pop {r4, pc}"),
    "conditional load with writeback": _block(
        "push {r4, r5, lr}", "cmp r0, #0", "ldrne r4, [sp], #4",
        "movne r5, sp", "pop {r4, pc}"),
    "call with a non-zero net_delta": _block(
        "push {lr}", "sub sp, sp, #4", "str r0, [sp]", "bl grow",
        "ldr r1, [sp, #4]", "bl shrink", "pop {pc}"),
    "conditional call": _block(
        "push {r4, lr}", "mov r0, sp", "cmp r1, #0", "bleq grow",
        "pop {r4, pc}"),
}

SUMMARIES = {
    "grow": FuncSummary(net_delta=8, max_height=8),
    "shrink": FuncSummary(net_delta=-8, caller_writes=(-4,),
                          caller_reads=(-8,)),
}


def _in_states():
    entry = entry_state()
    framed = reference_transfer(
        entry, _block("push {r4, r5, lr}", "mov r4, #3").instructions, {})
    return {
        "entry": entry,
        "framed": framed,
        "escaped": AbsState(regs=framed.regs, frame=framed.frame,
                            escaped=True),
        "lost sp": entry.with_reg(13, TOP),
    }


@pytest.mark.parametrize("summaries", [{}, SUMMARIES],
                         ids=["no-summaries", "summaries"])
@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_kernel_matches_the_fold_on_hand_built_blocks(name, summaries):
    block = BLOCKS[name]
    key = ("f", 0)
    for label, state in _in_states().items():
        got = AbsIntAnalysis(summaries).transfer(key, block, state)
        assert got == reference_transfer(state, block.instructions,
                                         summaries), label
        cfg = ModuleCFG(keys=[key], blocks={key: block})
        result = DataflowResult(in_facts={key: state})
        assert absint._walk_blocks(cfg, result, summaries) == \
            reference_walk(cfg, result, summaries), label


def test_hand_built_blocks_exercise_the_join():
    """The blocks above are not trivial: the conditional stack moves
    lose the height, the conditional store is a may-clobber, and the
    callee's net_delta moves sp."""
    entry = entry_state()
    analysis = AbsIntAnalysis(SUMMARIES)
    key = ("f", 0)
    out = analysis.transfer(key, BLOCKS["conditional push, pop {pc} and "
                                        "sub sp"], entry)
    assert out.height is None
    cfg = ModuleCFG(keys=[key],
                    blocks={key: BLOCKS["conditional store over the "
                                        "saved lr"]})
    events, __ = absint._walk_blocks(
        cfg, DataflowResult(in_facts={key: entry}), SUMMARIES)
    assert [e.kind for e in events] == [RETADDR_CLOBBER]
    out = analysis.transfer(key, BLOCKS["call with a non-zero net_delta"],
                            entry)
    assert out.height == 4  # push 4, sub 4, grow 8, shrink 8, pop 4


def test_growing_sp_allocates_like_the_domain():
    for old, new in [(0, 4), (0, 16), (8, 20), (12, 12)]:
        regs = list(entry_state().regs)
        regs[13] = StackAddr(old)
        frame = {4: RETADDR}
        _set_sp(regs, frame, StackAddr(new))
        assert frame_from_dict(frame) == \
            allocate(frame_from_dict({4: RETADDR}), old, new)


def _two_return_module():
    """``f``'s only block returns twice: a conditional ``moveq pc, lr``
    before its frame exists and a ``pop {pc}`` after; ``g`` returns
    through a conditional ``popeq`` and falls through to a ``pop``."""
    def func(name, *lines):
        return Function(name=name, blocks=[BasicBlock(
            labels=[name],
            instructions=[parse_instruction(line) for line in lines])])

    return Module(functions=[
        func("_start", "bl f", "bl g", "mov r0, #0", "swi #0"),
        func("f", "cmp r0, #0", "moveq pc, lr", "push {lr}",
             "mov r1, #2", "pop {pc}"),
        func("g", "push {r4, lr}", "cmp r0, #0", "popeq {r4, pc}",
             "pop {r4, pc}"),
    ])


def test_returns_are_read_off_the_single_walk():
    result = audit_module(_two_return_module())
    assert result.summaries["f"] == FuncSummary(
        net_delta=0, height_known=True, max_height=4, retaddr_slots=(4,),
        returns=2)
    # the taken popeq leaves at height 0; the fall-through keeps 8
    assert result.summaries["g"] == FuncSummary(
        net_delta=0, height_known=True, max_height=8,
        retaddr_slots=(4,), returns=2)
    assert result.summaries["_start"] == FuncSummary(
        net_delta=0, height_known=True, max_height=0, returns=0)
    assert result.events == []
