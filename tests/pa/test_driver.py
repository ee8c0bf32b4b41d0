"""The iterative PA driver: candidate choice, benefit accounting, fixpoint."""

import pytest

from repro.binary.layout import layout
from repro.pa.driver import PAConfig, best_candidate, run_pa
from repro.pa.legality import ExtractionMethod
from repro.sim.machine import run_image

from tests.conftest import (
    SHARED_FRAGMENT_PROGRAM,
    module_from_source,
    run_asm,
)


def test_finds_reordered_fragment(shared_fragment_module):
    candidate = best_candidate(shared_fragment_module, PAConfig())
    assert candidate is not None
    assert candidate.method is ExtractionMethod.CALL
    assert candidate.occurrences == 2
    assert candidate.size >= 4


def test_run_to_fixpoint_preserves_behaviour(
    shared_fragment_module, shared_fragment_reference
):
    result = run_pa(shared_fragment_module, PAConfig())
    assert result.saved > 0
    assert result.instructions_after == shared_fragment_module.num_instructions
    out = run_image(layout(shared_fragment_module))
    assert (out.exit_code, out.output) == (
        shared_fragment_reference.exit_code,
        shared_fragment_reference.output,
    )


def test_savings_equal_benefit_sum(shared_fragment_module):
    result = run_pa(shared_fragment_module, PAConfig())
    assert result.saved == sum(r.benefit for r in result.records)


def test_dgspan_misses_single_block_duplicates():
    """A fragment occurring twice inside ONE block: Edgar-only."""
    src = """
    _start:
        mov r1, #9
        add r2, r1, #4
        eor r4, r2, r1
        orr r4, r4, #1
        add r6, r4, #0
        mov r1, #9
        add r2, r1, #4
        eor r4, r2, r1
        orr r4, r4, #1
        add r6, r6, r4
        mov r0, r6
        swi #2
        mov r0, #0
        swi #0
    """
    reference = run_asm(src)

    module = module_from_source(src)
    dgspan = run_pa(module, PAConfig(miner="dgspan"))
    assert dgspan.saved == 0

    module = module_from_source(src)
    edgar = run_pa(module, PAConfig(miner="edgar"))
    assert edgar.saved > 0
    out = run_image(layout(module))
    assert (out.exit_code, out.output) == (
        reference.exit_code, reference.output
    )


def test_leaf_functions_not_outlined():
    # lr lives in the register: call outlining would corrupt the return
    src = """
    _start:
        bl f
        bl g
        mov r0, #0
        swi #0
    f:
        mov r1, #3
        add r2, r1, #5
        mul r3, r2, r1
        eor r0, r3, r1
        mov pc, lr
    g:
        mov r1, #3
        add r2, r1, #5
        mul r3, r2, r1
        eor r0, r3, r1
        mov pc, lr
    """
    reference = run_asm(src)
    module = module_from_source(src)
    result = run_pa(module, PAConfig())
    out = run_image(layout(module))
    assert (out.exit_code, out.output) == (
        reference.exit_code, reference.output
    )


def test_max_rounds_respected(shared_fragment_module):
    result = run_pa(shared_fragment_module, PAConfig(max_rounds=0))
    assert result.saved == 0 and result.rounds == 0


def test_exempt_functions_untouched():
    src = """
    _start:
        ldr r5, =f
        bl f
        bl g
        mov r0, #0
        swi #0
    f:
        push {r4, lr}
        mov r1, #3
        add r2, r1, #5
        mul r3, r2, r1
        eor r4, r3, r1
        mov r0, r4
        pop {r4, pc}
    g:
        push {r4, lr}
        mov r1, #3
        add r2, r1, #5
        mul r3, r2, r1
        eor r4, r3, r1
        mov r0, r4
        pop {r4, pc}
    """
    module = module_from_source(src)
    f_before = [str(i) for i in module.function("f").iter_instructions()]
    result = run_pa(module, PAConfig())
    f_after = [str(i) for i in module.function("f").iter_instructions()]
    # f's address is taken: it must not be rewritten
    assert f_before == f_after


def test_unknown_miner_rejected(shared_fragment_module):
    """The round validates the miner before any shard is mined and
    leaves the module untouched."""
    before = shared_fragment_module.render()
    with pytest.raises(ValueError, match="unknown miner"):
        run_pa(shared_fragment_module, PAConfig(miner="magic"))
    assert shared_fragment_module.render() == before
