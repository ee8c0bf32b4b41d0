"""Batching and time-budget behaviour of the driver."""

import pytest

from repro.binary.layout import layout
from repro.pa.driver import (
    PAConfig,
    apply_batch,
    best_candidate,
    collect_candidates,
    run_pa,
)
from repro.sim.machine import run_image

from tests.conftest import module_from_source, run_asm

TWO_INDEPENDENT = """
_start:
    bl f1
    swi #2
    bl f2
    swi #2
    bl g1
    swi #2
    bl g2
    swi #2
    mov r0, #0
    swi #0
f1:
    push {r4, lr}
    mov r1, #3
    add r2, r1, #5
    mul r3, r2, r1
    eor r4, r3, r2
    mov r0, r4
    pop {r4, pc}
f2:
    push {r4, lr}
    mov r1, #3
    add r2, r1, #5
    mul r3, r2, r1
    eor r4, r3, r2
    add r0, r4, #1
    pop {r4, pc}
g1:
    push {r4, lr}
    mov r1, #7
    orr r2, r1, #8
    sub r3, r2, r1
    and r4, r3, r2
    mov r0, r4
    pop {r4, pc}
g2:
    push {r4, lr}
    mov r1, #7
    orr r2, r1, #8
    sub r3, r2, r1
    and r4, r3, r2
    add r0, r4, #2
    pop {r4, pc}
"""


def test_collect_returns_multiple_candidates():
    module = module_from_source(TWO_INDEPENDENT)
    candidates = collect_candidates(module, PAConfig())
    assert len(candidates) >= 2
    # best first
    benefits = [c.benefit for c in candidates]
    assert benefits == sorted(benefits, reverse=True)


def test_batch_applies_non_conflicting():
    reference = run_asm(TWO_INDEPENDENT)
    module = module_from_source(TWO_INDEPENDENT)
    candidates = collect_candidates(module, PAConfig())
    records, touched_blocks, touched_functions = apply_batch(
        module, PAConfig(), candidates
    )
    assert len(records) >= 2
    result = run_image(layout(module))
    assert (result.exit_code, result.output) == (
        reference.exit_code, reference.output
    )


def test_batch_vs_strict_same_savings():
    batched = module_from_source(TWO_INDEPENDENT)
    rb = run_pa(batched, PAConfig(batch=True))
    strict = module_from_source(TWO_INDEPENDENT)
    rs = run_pa(strict, PAConfig(batch=False))
    assert rb.saved == rs.saved
    assert rb.rounds <= rs.rounds


def test_candidates_have_origins():
    module = module_from_source(TWO_INDEPENDENT)
    for candidate in collect_candidates(module, PAConfig()):
        assert candidate.origins
        for func_name, block_index in candidate.origins:
            func = module.function(func_name)
            assert 0 <= block_index < len(func.blocks)


def test_time_budget_zero_still_terminates():
    module = module_from_source(TWO_INDEPENDENT)
    result = run_pa(module, PAConfig(time_budget=0.0001))
    # budget exhausted almost immediately: nothing (or very little) done,
    # but the module stays consistent and runnable
    run_image(layout(module))
    assert result.saved >= 0


def test_a_round_builds_its_dfgs_once(monkeypatch):
    """The batch is applied against the DFGs the round mined, not a
    second build of the same module."""
    import repro.pa.driver as driver_mod
    import repro.scale.pool as pool_mod

    builds = {"pool": 0, "apply": 0}

    def counted(site, real):
        def build(*args, **kwargs):
            builds[site] += 1
            return real(*args, **kwargs)
        return build

    monkeypatch.setattr(pool_mod, "build_dfgs",
                        counted("pool", pool_mod.build_dfgs))
    monkeypatch.setattr(driver_mod, "build_dfgs",
                        counted("apply", driver_mod.build_dfgs))
    result = run_pa(module_from_source(TWO_INDEPENDENT), PAConfig())
    assert result.saved > 0
    assert builds == {"pool": result.rounds + 1, "apply": 0}
