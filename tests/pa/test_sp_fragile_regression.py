"""Regression: frameless sp-reading callees must never gain a bracket.

Found by the fuzzed mini-C corpus (``repro.variance.genprog`` seeds 2
and 9 at ~4k instructions): round 1 outlined a frameless procedure
whose body stored through ``sp`` — sound at its original call sites,
where ``sp`` still points at the enclosing function's frame.  A later
round then outlined a fragment *containing* ``bl pa_N`` and, because
that fragment holds a call, wrapped it in ``push {lr}`` / ``pop {pc}``.
The bracket shifts ``sp`` by one word for the nested call, so the
frameless callee's store clobbered the saved return address and the
``pop {pc}`` jumped to address 0 (per-round translation validation
cannot see the cross-round composition).

The program below reproduces the composition deterministically: the
six-instruction sp-storing run is the most profitable round-1 fragment
(benefit 3), and after its call sites are rewritten the seven
instructions ``bl <outlined>`` .. ``add r4, r4, r4`` form round 2's
most profitable fragment (also benefit 3) — which must now be rejected
for call outlining, since its bracket would shift ``sp`` under the
fragile callee.
"""

from repro.binary.layout import layout
from repro.isa.registers import LR, PC
from repro.pa.driver import PAConfig, run_pa
from repro.pa.legality import sp_fragile_functions
from repro.pa.sfx import run_sfx
from repro.sim.machine import run_image

from tests.conftest import module_from_source, run_asm

COMPOSITION_PROGRAM = """
.text
.global _start
_start:
    bl f1
    swi #2
    bl f2
    swi #2
    mov r0, #0
    swi #0
f1:
    push {r4, lr}
    sub sp, sp, #8
    mov r7, #0
    str r7, [sp]
    str r7, [sp, #4]
    mov r6, #1
    str r6, [sp, #4]
    str r7, [sp]
    bl helper
    mov r4, #5
    add r4, r4, #9
    eor r4, r4, #3
    orr r4, r4, #1
    add r4, r4, r4
    ldr r0, [sp, #4]
    add r0, r0, r4
    add r0, r0, r7
    add r0, r0, r3
    add sp, sp, #8
    pop {r4, pc}
f2:
    push {r4, lr}
    sub sp, sp, #8
    mov r5, #3
    add r5, r5, #40
    mov r7, #0
    str r7, [sp]
    str r7, [sp, #4]
    mov r6, #1
    str r6, [sp, #4]
    str r7, [sp]
    bl helper
    mov r4, #5
    add r4, r4, #9
    eor r4, r4, #3
    orr r4, r4, #1
    add r4, r4, r4
    ldr r0, [sp]
    add r0, r0, r5
    add r0, r0, r4
    add sp, sp, #8
    pop {r4, pc}
helper:
    mov r3, #1
    mov pc, lr
"""


def _bracketed(func) -> bool:
    """True for the exact outlining bracket: push {lr} .. pop {pc}.

    Ordinary frames (``push {r4, lr}`` .. ``pop {r4, pc}``) don't
    count: their bodies call fragile procedures from the fragment's
    original position, where ``sp`` is exactly what the inline code
    saw.  Only a *new* bracket around an existing call site shifts it.
    """
    insns = [i for b in func.blocks for i in b.instructions]
    return bool(insns) and (
        insns[0].mnemonic == "push" and insns[0].operands[0].regs == (LR,)
    ) and (
        insns[-1].mnemonic == "pop" and insns[-1].operands[0].regs == (PC,)
    )


def assert_no_bracketed_call_to_fragile(module):
    """No push{lr}/pop{pc}-bracketed function may call a fragile one."""
    fragile = sp_fragile_functions(module)
    for func in module.functions:
        if not _bracketed(func):
            continue
        for block in func.blocks:
            for insn in block.instructions:
                if insn.is_call and str(insn.operands[0]) in fragile:
                    raise AssertionError(
                        f"{func.name} brackets a call to fragile "
                        f"{insn.operands[0]}"
                    )


def test_sfx_rejects_bracketing_fragile_callee():
    reference = run_asm(COMPOSITION_PROGRAM)
    assert reference.exit_code == 0
    module = module_from_source(COMPOSITION_PROGRAM)
    result = run_sfx(module)
    # round 1 must still outline the sp-storing run (the bug's trigger
    # requires a fragile procedure to exist)
    assert sp_fragile_functions(module), "expected a frameless sp user"
    assert result.saved > 0
    assert_no_bracketed_call_to_fragile(module)
    out = run_image(layout(module), max_steps=100_000)
    assert (out.output, out.exit_code) == (
        reference.output, reference.exit_code
    )


def test_composition_program_miscompiles_without_the_gate(monkeypatch):
    """The program is a live trigger: disabling the gate reproduces the
    original failure (saved lr clobbered, pc slides to 0, no exit)."""
    import pytest

    import repro.pa.sfx as sfx_mod
    from repro.sim.machine import ExecutionError

    monkeypatch.setattr(
        sfx_mod, "sp_fragile_functions",
        lambda module, memo=None, cfg=None: frozenset()
    )
    module = module_from_source(COMPOSITION_PROGRAM)
    run_sfx(module)
    with pytest.raises(ExecutionError):
        run_image(layout(module), max_steps=100_000)


def test_static_catch_absint_proves_fragility_with_evidence():
    """The gate's verdict is now an absint *fact*: the outlined
    sp-storing helper is provably fragile (it writes the caller's
    frame), and the ledger carries the evidence."""
    from repro.report.ledger import GLOBAL as ledger
    from repro.verify.absint import module_summaries

    module = module_from_source(COMPOSITION_PROGRAM)
    run_sfx(module)
    fragile = sp_fragile_functions(module)
    assert fragile, "round 1 must still outline the sp-storing run"

    summaries = module_summaries(module)
    for name in fragile:
        assert summaries[name].fragile
        assert summaries[name].touches_caller_frame or \
            summaries[name].net_delta != 0 or \
            not summaries[name].height_known
    # the helper writes through sp at its entry height: caller memory
    assert any(summaries[n].caller_writes for n in fragile)

    ledger.enable()
    ledger.reset()
    try:
        sp_fragile_functions(module)
        records = ledger.records_of("legality.sp_fragile")
    finally:
        ledger.reset()
        ledger.disable()
    assert {r["function"] for r in records} == set(fragile)
    assert all("caller_writes" in r for r in records)


def test_dynamic_catch_sanitizer_flags_the_clobber(monkeypatch):
    """With the gate disabled the sanitizer catches the composition at
    the faulting store — a retaddr-clobber finding naming the saved-lr
    slot — before the wild jump kills the run."""
    from repro.sim.sanitize import RETADDR_CLOBBER, run_sanitized

    import repro.pa.sfx as sfx_mod

    # gated build: zero findings
    module = module_from_source(COMPOSITION_PROGRAM)
    run_sfx(module)
    _, error, sanitizer = run_sanitized(layout(module),
                                        max_steps=100_000)
    assert error is None and sanitizer.findings == []

    # ungated build: the clobber is flagged at its site
    monkeypatch.setattr(
        sfx_mod, "sp_fragile_functions",
        lambda module, memo=None, cfg=None: frozenset()
    )
    broken = module_from_source(COMPOSITION_PROGRAM)
    run_sfx(broken)
    _, error, sanitizer = run_sanitized(layout(broken),
                                        max_steps=100_000)
    assert error is not None
    assert RETADDR_CLOBBER in sanitizer.kinds
    finding = next(f for f in sanitizer.findings
                   if f.kind == RETADDR_CLOBBER)
    assert "saved return address" in finding.detail


def test_driver_rejects_bracketing_fragile_callee():
    reference = run_asm(COMPOSITION_PROGRAM)
    module = module_from_source(COMPOSITION_PROGRAM)
    run_pa(module, PAConfig(verify=True, time_budget=10.0))
    assert_no_bracketed_call_to_fragile(module)
    out = run_image(layout(module), max_steps=100_000)
    assert (out.output, out.exit_code) == (
        reference.output, reference.exit_code
    )
