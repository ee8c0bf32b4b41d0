"""Verify-failure recovery: a translation-validation counterexample
rolls the round back, blocklists the offender, and re-mines — only an
exhausted retry budget degrades to the historical abort.

The counterexample is forged via the ``verify.counterexample`` fault
point in ``corrupt`` mode (non-raising: the validator sees the marker
and manufactures an equivalence failure for the first genuinely
rewritten block), so the recovery path is exercised against a real
candidate's origin coordinates.

The blocklist acts inside the shard funnel, before a blocklisted
winner can set its shard's benefit floor.
"""

import pytest

from repro.report import ledger
from repro.pa import driver
from repro.pa.driver import PAConfig, run_pa
from repro.resilience.faultinject import arm
from repro.resilience.governor import RunGovernor
from repro.scale.cache import FragmentCache
from repro.scale.pool import run_sharded_round
from repro.verify.dataflow import AnalysisMemo
from repro.verify.lint import lint_module
from repro.verify.validate import TranslationValidationError
from repro.workloads import compile_workload, verify_workload
from tests.pa.test_serial_reference import (
    _summary,
    distinct,
    reference_collect,
)

WORKLOAD = "crc"


def _config(**overrides):
    overrides.setdefault("verify", True)
    return PAConfig(max_nodes=4, **overrides)


def test_counterexample_triggers_rollback_blocklist_retry():
    module = compile_workload(WORKLOAD)
    arm("verify.counterexample:corrupt")      # one forged failure
    result = run_pa(module, _config())  # must not raise
    assert result.verify_retries == 1
    assert result.rolled_back_rounds == 1
    assert result.degraded
    assert "verify_retries" in result.degraded_reasons
    assert lint_module(module).ok
    verify_workload(WORKLOAD, module)


def test_retry_round_skips_the_blocklisted_candidate():
    reference = compile_workload(WORKLOAD)
    clean = run_pa(reference, _config())

    module = compile_workload(WORKLOAD)
    arm("verify.counterexample:corrupt")
    batches = []
    real_apply = driver.apply_batch

    def recording(module, config, candidates, applied=None, dfgs=None):
        outcome = real_apply(module, config, candidates, applied, dfgs)
        batches.append({c.fingerprint() for c in applied})
        return outcome

    ledger.reset()
    ledger.enable()
    try:
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(driver, "apply_batch", recording)
            recovered = run_pa(module, _config())
        (retry,) = ledger.get().records_of("verify.retry")
    finally:
        ledger.disable()
        ledger.reset()
    # the re-mined round applies none of the blocklisted candidates
    blocklisted = set(retry["blocklisted"])
    assert blocklisted and blocklisted <= batches[0]
    assert not blocklisted & batches[1]
    # recovery may skip the blocklisted extraction, so it can save at
    # most as much as the clean run — but the run must still finish
    # with a valid, verified module
    assert recovered.saved <= clean.saved
    assert recovered.rounds >= 1


def test_exhausted_retries_degrade_to_abort():
    module = compile_workload(WORKLOAD)
    before_asm = module.render()
    arm("verify.counterexample:corrupt:0")    # every verify fails
    with pytest.raises(TranslationValidationError):
        run_pa(module, _config(verify_max_retries=2))
    # the failed round was rolled back: the module is untouched
    assert module.render() == before_asm


def test_retry_budget_is_configurable():
    module = compile_workload(WORKLOAD)
    arm("verify.counterexample:corrupt:0")
    with pytest.raises(TranslationValidationError):
        run_pa(module, _config(verify_max_retries=0))


def test_retry_emits_ledger_records():
    ledger.reset()
    ledger.enable()
    try:
        module = compile_workload(WORKLOAD)
        arm("verify.counterexample:corrupt")
        run_pa(module, _config())
        retries = ledger.get().records_of("verify.retry")
        assert len(retries) == 1
        assert retries[0]["round"] == 0
        assert retries[0]["attempt"] == 1
        assert retries[0]["blocklisted"], "no fingerprints recorded"
        counterexamples = ledger.get().records_of("verify.counterexample")
        assert len(counterexamples) == 1
        assert counterexamples[0]["injected"] is True
        degraded = ledger.get().records_of("run.degraded")
        assert len(degraded) == 1
        assert "verify_retries" in degraded[0]["reasons"]
    finally:
        ledger.disable()
        ledger.reset()


#: (program, max_nodes) rounds whose winner gets blocklisted
BLOCKLIST_ROUNDS = [("crc", 4), ("crc", 8), ("dijkstra", None)]


def test_blocklisted_winner_does_not_set_the_floor():
    """A round mined with its winner blocklisted keeps everything else
    the winner's shard offers: it equals the from-scratch reference
    that skips the winner before it can raise the floor (repeats
    dropped).  A floor set by the winner would hide its runners-up:
    on crc at ``max_nodes`` 4 the clean round has one candidate, and
    the blocklisted one has 14."""
    for program, max_nodes in BLOCKLIST_ROUNDS:
        config = PAConfig(time_budget=None,
                          **({"max_nodes": max_nodes} if max_nodes else {}))
        module = compile_workload(program)
        clean, __ = run_sharded_round(module, config, RunGovernor(),
                                      FragmentCache())
        winner = clean[0].fingerprint()
        recovered, __ = run_sharded_round(module, config, RunGovernor(),
                                          FragmentCache(), AnalysisMemo(),
                                          blocklist=[winner])
        reference, __ = reference_collect(module, config, AnalysisMemo(),
                                          blocklist=[winner])
        assert winner not in {c.fingerprint() for c in recovered}
        assert _summary(recovered) == _summary(distinct(reference)), (
            f"{program} at max_nodes {max_nodes}")
        assert len(recovered) >= len(clean)
