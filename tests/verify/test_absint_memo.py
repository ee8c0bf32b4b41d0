"""Component-memoised abstract interpretation is exact.

:func:`audit_module` solves each weakly-connected CFG component on its
own and reuses solves across the audits of one PA run.  The reference
below is the whole-module summary loop it replaced: one ``solve`` over
the full CFG per round, then ``_extract_summaries``.  Every audit a PA
run makes must agree with it exactly.
"""

import pytest

from repro import telemetry
from repro.pa.driver import PAConfig, run_pa
from repro.pa.sfx import run_sfx
from repro.verify import absint
from repro.verify.absint import (
    AbsIntAnalysis,
    AuditMemo,
    AuditResult,
    _extract_summaries,
    _join_mismatches,
    audit_module,
)
from repro.verify.cfg import build_module_cfg
from repro.verify.dataflow import ConvergenceError, solve
from repro.workloads import compile_workload

from tests.conftest import module_from_source


def reference_audit(module, max_iterations=4):
    """The whole-module loop, stopping after *max_iterations* rounds."""
    cfg = build_module_cfg(module)
    summaries = {}
    iterations = 0
    for __ in range(max_iterations):
        iterations += 1
        result = solve(cfg, AbsIntAnalysis(summaries))
        updated, events = _extract_summaries(
            module.functions, cfg, result, summaries
        )
        if updated == summaries:
            break
        summaries = updated
    events = events + _join_mismatches(cfg, result, cfg.reachable())
    return AuditResult(summaries=summaries, events=events, result=result,
                       iterations=iterations)


def assert_same_audit(got, want):
    assert got.summaries == want.summaries
    assert got.to_payload() == want.to_payload()
    assert got.result.in_facts == want.result.in_facts
    assert got.result.out_facts == want.result.out_facts
    assert got.result.iterations == want.result.iterations


@pytest.fixture
def registry():
    registry = telemetry.get()
    registry.reset()
    registry.enable()
    yield registry
    registry.disable()
    registry.reset()


@pytest.fixture
def checked_audits(monkeypatch):
    """Check every audit against the reference; yields the call count."""
    real = absint.audit_module
    calls = [0]

    def checked(module, cfg=None, memo=None):
        got = real(module, cfg, memo)
        assert_same_audit(got, reference_audit(module))
        calls[0] += 1
        return got

    monkeypatch.setattr(absint, "audit_module", checked)
    return calls


@pytest.mark.parametrize("engine, workload", [("sfx", "sha"),
                                              ("edgar", "crc")])
def test_every_audit_of_a_run_matches_the_whole_module_loop(
        engine, workload, checked_audits, registry):
    module = compile_workload(workload)
    if engine == "sfx":
        result = run_sfx(module)
    else:
        result = run_pa(module, PAConfig(miner=engine))
    assert result.saved > 0
    assert checked_audits[0] > result.rounds
    # the memo was exercised: some lookups were served without a solve
    components = registry.counter_value("verify.audit.components")
    assert 0 < registry.counter_value("verify.audit.solves") < components


def test_back_to_back_runs_solve_the_same_components(registry):
    """No memo state crosses runs: an identical second run re-solves
    exactly as many components as the first."""
    solves = []
    for __ in range(2):
        registry.reset()
        run_sfx(compile_workload("crc"))
        solves.append(registry.counter_value("verify.audit.solves"))
    assert solves[0] > 0
    assert solves[0] == solves[1]


def test_memo_keeps_only_the_last_audits_entries():
    module = compile_workload("crc")
    memo = AuditMemo()
    audit_module(module, memo=memo)
    cold = memo.solves
    audit_module(module, memo=memo)
    assert memo.solves == cold  # an unchanged module is all hits
    audit_module(module_from_source(CHAIN_PROGRAM), memo=memo)
    audit_module(module, memo=memo)
    assert memo.solves > cold  # crc's entries were dropped in between


def _chain_program(helpers: int, offset: int) -> str:
    """``_start`` calls a chain of *helpers* bracketed helpers over a
    frameless leaf that reads its caller's frame at ``[sp, #offset]``."""
    lines = [".text", ".global _start", "_start:",
             f"    bl h{helpers}", "    mov r0, #0", "    swi #0",
             "leaf:", f"    ldr r0, [sp, #{offset}]", "    mov pc, lr"]
    for level in range(1, helpers + 1):
        callee = "leaf" if level == 1 else f"h{level - 1}"
        lines += [f"h{level}:", "    push {lr}", f"    bl {callee}",
                  "    pop {pc}"]
    return "\n".join(lines) + "\n"


CHAIN_PROGRAM = _chain_program(helpers=6, offset=40)


def test_summary_iteration_runs_to_its_fixpoint():
    """Caller-frame reads climb one call level per summary round.  The
    leaf reads 40 bytes up; each bracket takes 4 of them, so all six
    helpers touch their caller's frame.  A loop capped at 4 rounds
    stops with the top of the chain wrongly non-fragile."""
    module = module_from_source(CHAIN_PROGRAM)
    result = audit_module(module)
    assert all(result.summaries[f"h{level}"].fragile
               for level in range(1, 7))
    assert result.summaries["h6"].caller_reads == (-16,)
    assert result.iterations > 4

    capped = reference_audit(module, max_iterations=4)
    assert not capped.summaries["h6"].fragile
    assert_same_audit(result,
                      reference_audit(module, max_iterations=100))


GROWING_READS_PROGRAM = """
.text
.global _start
_start:
    bl f
    mov r0, #0
    swi #0
f:
    ldr r0, [sp]
    add sp, sp, #4
    bl f
    sub sp, sp, #4
    mov pc, lr
"""


def test_non_converging_summaries_raise():
    """``f`` recurses one word above its own entry ``sp``, so every
    summary round adds a caller-frame read 4 bytes further up.  The
    iteration ends in ConvergenceError, not an optimistic guess."""
    module = module_from_source(GROWING_READS_PROGRAM)
    with pytest.raises(ConvergenceError, match="after 3 rounds"):
        audit_module(module)
