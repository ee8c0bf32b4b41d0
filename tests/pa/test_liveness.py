"""Module-wide lr liveness — including the cross-jump regression."""

from repro.binary.layout import layout
from repro.pa.driver import PAConfig, run_pa
from repro.pa.liveness import lr_live_out_blocks
from repro.pa.sfx import SFXConfig, run_sfx
from repro.sim.machine import run_image

from tests.conftest import module_from_source, run_asm


def keys(module):
    return lr_live_out_blocks(module)


def test_leaf_function_blocks_live():
    module = module_from_source(
        """
        _start:
            bl f
            swi #0
        f:
            mov r1, #1
            cmp r1, #0
            beq out
            add r1, r1, #1
        out:
            mov pc, lr
        """
    )
    live = keys(module)
    # every f block preceding the lr-consuming return is live-out
    assert ("f", 0) in live
    assert ("f", 1) in live
    assert ("f", 2) not in live  # the return block itself consumes lr


def test_stack_saving_function_dead():
    module = module_from_source(
        """
        _start:
            bl f
            swi #0
        f:
            push {r4, lr}
            mov r4, #1
            pop {r4, pc}
        """
    )
    live = keys(module)
    assert ("f", 0) not in live


def test_bl_kills_liveness():
    module = module_from_source(
        """
        _start:
            mov r0, #0
            bl f
            swi #0
        f:
            mov pc, lr
        """
    )
    # _start block 0: the bl rewrites lr before... actually the bl is in
    # the same block; lr is never read in _start, so nothing is live
    assert ("_start", 0) not in keys(module)


def test_cross_function_tail_keeps_liveness():
    """The rijndael regression shape: a shared tail in another function
    consumes lr; its feeder blocks must be live-out."""
    module = module_from_source(
        """
        _start:
            bl f
            bl g
            swi #0
        f:
            mov r1, #1
            b shared
        g:
            mov r1, #2
            b shared
        shared:
            add r1, r1, #1
            mov pc, lr
        """
    )
    live = keys(module)
    assert ("f", 0) in live
    assert ("g", 0) in live


def test_regression_no_call_outlining_into_tail_merged_leaf():
    """After tail-merging two leaf returns, outlining from a feeder
    block must be refused (a bl there would clobber the still-live lr).
    Behaviour before the fix: infinite loop."""
    src = """
    _start:
        bl f
        swi #2
        bl g
        swi #2
        mov r0, #0
        swi #0
    f:
        mov r1, #3
        add r2, r1, #5
        eor r3, r2, r1
        orr r0, r3, #1
        mov pc, lr
    g:
        mov r1, #3
        add r2, r1, #5
        eor r3, r2, r1
        orr r0, r3, #2
        mov pc, lr
    """
    reference = run_asm(src)

    for engine in ("sfx", "edgar"):
        module = module_from_source(src)
        if engine == "sfx":
            run_sfx(module, SFXConfig())
        else:
            run_pa(module, PAConfig(miner="edgar"))
        result = run_image(layout(module), max_steps=100_000)
        assert (result.exit_code, result.output) == (
            reference.exit_code, reference.output
        ), engine


# ----------------------------------------------------------------------
# differential check against the historical single-register fixpoint
# ----------------------------------------------------------------------
def _reference_lr_live_out(module):
    """The pre-framework algorithm, kept verbatim as a test oracle: a
    chaotic-iteration boolean fixpoint with per-block (reads-first,
    kills) summaries.  The production path now goes through the generic
    solver in repro.verify; on every workload both must agree exactly."""
    from repro.isa.registers import LR

    def block_summary(block):
        reads_first = False
        kills = False
        for insn in block.instructions:
            if LR in insn.regs_read():
                if not kills:
                    reads_first = True
            if LR in insn.regs_written() and not insn.is_conditional:
                kills = True
        return reads_first, kills

    label_to_block, ordered = {}, []
    for func in module.functions:
        for bi, block in enumerate(func.blocks):
            key = (func.name, bi)
            ordered.append((key, block))
            if bi == 0:
                label_to_block.setdefault(func.name, key)
            for label in block.labels:
                label_to_block[label] = key
    succ = {}
    for index, (key, block) in enumerate(ordered):
        targets, falls_through = [], True
        for insn in block.instructions:
            if insn.is_branch and not insn.is_call:
                target = insn.label_target
                if target is not None and target in label_to_block:
                    targets.append(label_to_block[target])
                if not insn.is_conditional:
                    falls_through = False
            elif insn.is_terminator and not insn.is_conditional:
                falls_through = False
        if falls_through and index + 1 < len(ordered):
            next_key, __ = ordered[index + 1]
            if next_key[0] == key[0]:
                targets.append(next_key)
        succ[key] = targets

    summaries = {key: block_summary(block) for key, block in ordered}
    live_in = {key: False for key in summaries}
    live_out = {key: False for key in summaries}
    changed = True
    while changed:
        changed = False
        for key in summaries:
            out = any(live_in[s] for s in succ[key])
            reads_first, kills = summaries[key]
            inn = reads_first or (not kills and out)
            if out != live_out[key] or inn != live_in[key]:
                live_out[key] = out
                live_in[key] = inn
                changed = True
    return {key for key, live in live_out.items() if live}


def test_differential_lr_liveness_on_all_workloads():
    from repro.workloads import PROGRAMS, compile_workload

    for name in sorted(PROGRAMS):
        module = compile_workload(name)
        assert lr_live_out_blocks(module) == _reference_lr_live_out(
            module
        ), name


def test_differential_lr_liveness_after_abstraction():
    """Agreement must also hold on post-extraction modules (shared
    tails, outlined helpers)."""
    from repro.workloads import compile_workload

    for name in ("crc", "qsort"):
        module = compile_workload(name)
        run_pa(module, PAConfig(miner="edgar"))
        assert lr_live_out_blocks(module) == _reference_lr_live_out(
            module
        ), name


def test_every_memoised_call_of_a_run_matches_whole_module_liveness(
        monkeypatch):
    """The per-component, memoised solve agrees with one whole-module
    liveness solve at every round of an SFX and an Edgar run."""
    import repro.pa.driver as driver_mod
    import repro.pa.sfx as sfx_mod
    import repro.scale.pool as pool_mod
    from repro.isa.registers import LR
    from repro.verify.passes import live_out_blocks
    from repro.workloads import compile_workload

    calls = [0]

    def checked(module, memo=None, cfg=None):
        got = lr_live_out_blocks(module, memo, cfg)
        assert got == live_out_blocks(module, LR)
        calls[0] += 1
        return got

    monkeypatch.setattr(sfx_mod, "lr_live_out_blocks", checked)
    monkeypatch.setattr(driver_mod, "lr_live_out_blocks", checked)
    monkeypatch.setattr(pool_mod, "lr_live_out_blocks", checked)
    sfx = run_sfx(compile_workload("sha"))
    edgar = run_pa(compile_workload("crc"), PAConfig(miner="edgar"))
    assert sfx.saved > 0 and edgar.saved > 0
    assert calls[0] > sfx.rounds + edgar.rounds


def test_unchanged_module_runs_no_liveness_solve():
    from repro.verify.dataflow import AnalysisMemo
    from repro.workloads import compile_workload

    module = compile_workload("crc")
    memo = AnalysisMemo()
    first = lr_live_out_blocks(module, memo)
    cold = memo.liveness.solves
    assert cold > 0
    assert lr_live_out_blocks(module, memo) == first
    assert memo.liveness.solves == cold


def test_back_to_back_runs_solve_the_same_liveness_components():
    """No memo state crosses runs: an identical second run re-solves
    exactly as many components as the first, and some calls of a run
    are served from its memo."""
    from repro import telemetry
    from repro.workloads import compile_workload

    registry = telemetry.get()
    registry.reset()
    registry.enable()
    try:
        counts = []
        for __ in range(2):
            registry.reset()
            run_sfx(compile_workload("crc"))
            counts.append((
                registry.counter_value("verify.liveness.solves"),
                registry.counter_value("verify.liveness.components"),
            ))
    finally:
        registry.disable()
        registry.reset()
    assert counts[0] == counts[1]
    solves, components = counts[0]
    assert 0 < solves < components


def test_memo_is_keyed_on_block_content():
    """Two modules with the same block keys but a different return
    idiom: the memo must not serve the first module's lr-live set for
    the second."""
    from repro.isa.registers import LR
    from repro.verify.dataflow import AnalysisMemo
    from repro.verify.passes import live_out_blocks

    source = """
        _start:
            bl f
            swi #0
        f:
            mov r1, #1
            b out
        out:
            {ret}
        """
    memo = AnalysisMemo()
    for ret in ("mov pc, lr", "bx r1", "mov pc, lr"):
        module = module_from_source(source.format(ret=ret))
        got = lr_live_out_blocks(module, memo)
        assert got == live_out_blocks(module, LR)
        assert (("f", 0) in got) == (ret == "mov pc, lr")
