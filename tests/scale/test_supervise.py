"""The supervised shard executor: crashed/hung/poisoned workers are
contained at the shard boundary.  A killed worker is redelivered and
the run stays bit-identical to an undisturbed one; a poisoned shard is
quarantined after bounded retries plus the serial fallback (degraded
run, ``scale.quarantine`` ledger record) or raises the typed
``REPRO-SHARD`` error under ``--strict-shards``; retry counters ride
the checkpoint across a resume."""

import pytest

from repro.cli import main
from repro.pa.driver import PAConfig, config_from_dict, run_pa
from repro.report.ledger import read_jsonl
from repro.resilience import faultinject
from repro.resilience.checkpoint import (
    load_checkpoint,
    module_from_checkpoint,
)
from repro.resilience.errors import EXIT_SHARD, ShardError
from repro.resilience.governor import RunGovernor
from repro.scale.supervise import BACKOFF_BASE, BACKOFF_CAP, _backoff
from repro.workloads import compile_workload


def _config(**overrides):
    return PAConfig(max_nodes=4, **overrides)


# ----------------------------------------------------------------------
# crash: SIGKILL'd workers are redelivered, results bit-identical
# ----------------------------------------------------------------------
def test_crashed_worker_is_redelivered_bit_identically():
    clean = compile_workload("crc")
    reference = run_pa(clean, _config(workers=2))

    faultinject.arm("scale.worker.crash:raise:1")
    crashy = compile_workload("crc")
    result = run_pa(crashy, _config(workers=2))

    assert result.shards_retried >= 1
    assert result.shards_quarantined == 0
    assert not result.degraded
    assert crashy.render() == clean.render()
    assert result.saved == reference.saved
    assert result.records == reference.records


def test_every_delivery_crashing_recovers_via_serial_fallback():
    """``at=0`` crashes *every* dispatch: all shards exhaust their
    budget and the in-parent serial fallback (which never runs worker
    directives) recovers every one — fallbacks > 0, nothing
    quarantined, output still bit-identical."""
    clean = compile_workload("crc")
    run_pa(clean, _config(workers=2))

    faultinject.arm("scale.worker.crash:raise:0")
    crashy = compile_workload("crc")
    result = run_pa(crashy, _config(workers=2, shard_retries=0))

    assert result.shards_quarantined == 0
    assert not result.degraded
    assert crashy.render() == clean.render()


# ----------------------------------------------------------------------
# hang: the soft timeout converts a stuck worker into a redelivery
# ----------------------------------------------------------------------
def test_hung_worker_is_killed_and_redelivered_under_soft_timeout():
    clean = compile_workload("crc")
    run_pa(clean, _config(workers=2))

    faultinject.arm("scale.worker.hang:raise:1")
    hung = compile_workload("crc")
    result = run_pa(hung, _config(workers=2, shard_timeout=1.5))

    assert result.shards_retried >= 1
    assert result.shards_quarantined == 0
    assert hung.render() == clean.render()


# ----------------------------------------------------------------------
# poison: sticky failure -> quarantine (degrade) or strict abort
# ----------------------------------------------------------------------
def test_poisoned_shard_is_quarantined_and_run_degrades():
    faultinject.arm("scale.shard.poison:raise:1")
    module = compile_workload("crc")
    result = run_pa(module, _config(workers=2, shard_retries=1))

    assert result.shards_retried == 1
    assert result.shards_quarantined >= 1
    assert result.degraded
    assert "shards_quarantined" in result.degraded_reasons


def test_serial_path_runs_the_same_quarantine_state_machine():
    faultinject.arm("scale.shard.poison:raise:1")
    module = compile_workload("crc")
    result = run_pa(module, _config(workers=1, shard_retries=1))

    assert result.shards_retried == 1
    assert result.shards_quarantined >= 1
    assert result.degraded
    assert "shards_quarantined" in result.degraded_reasons


def test_funnel_error_in_the_parent_propagates():
    """Only worker deaths and poison are retried and quarantined: an
    error the funnel raises in the parent rolls the round back and
    surfaces."""
    faultinject.arm("mine.pass:raise")
    module = compile_workload("crc")
    before = module.render()
    with pytest.raises(faultinject.FaultInjected):
        run_pa(module, _config(workers=1))
    assert module.render() == before


def test_strict_shards_raises_typed_error_and_rolls_back():
    faultinject.arm("scale.shard.poison:raise:1")
    module = compile_workload("crc")
    before = module.render()
    with pytest.raises(ShardError) as excinfo:
        run_pa(module, _config(workers=2, shard_retries=0,
                               strict_shards=True))
    assert excinfo.value.code == "REPRO-SHARD"
    assert excinfo.value.exit_code == EXIT_SHARD
    assert module.render() == before


# ----------------------------------------------------------------------
# observability: ledger records and the CLI exit contract
# ----------------------------------------------------------------------
def test_retry_and_quarantine_ledger_records(tmp_path, capsys):
    ledger_out = tmp_path / "ledger.jsonl"
    code = main(["pa", "crc", "--max-nodes", "4", "--workers", "2",
                 "--fault", "scale.shard.poison:raise:1",
                 "--shard-retries", "1",
                 "--ledger-out", str(ledger_out)])
    assert code == 0             # quarantine degrades, never dies
    err = capsys.readouterr().err
    assert "note: run degraded" in err
    assert "quarantined" in err

    records = read_jsonl(str(ledger_out))
    retries = [r for r in records if r["type"] == "scale.retry"]
    assert retries and all(r["attempt"] >= 1 for r in retries)
    quarantines = [r for r in records if r["type"] == "scale.quarantine"]
    assert len(quarantines) == 1
    assert quarantines[0]["recovered"] is False
    assert quarantines[0]["attempts"] >= 2
    flagged = [r for r in records
               if r["type"] == "scale.shard" and r.get("quarantined")]
    assert {r["index"] for r in flagged} == \
        {r["shard"] for r in quarantines}


def test_strict_shards_cli_exit_code(capsys):
    code = main(["pa", "crc", "--max-nodes", "4", "--workers", "2",
                 "--fault", "scale.shard.poison:raise:1",
                 "--shard-retries", "0", "--strict-shards"])
    assert code == EXIT_SHARD
    err = capsys.readouterr().err
    assert "error[REPRO-SHARD]" in err
    assert "Traceback" not in err


# ----------------------------------------------------------------------
# checkpoint/resume continuity of the retry counters (on sha, the
# satellite's SIGKILL-mid-round scenario)
# ----------------------------------------------------------------------
def test_sigkill_checkpoint_resume_roundtrips_retry_counters(tmp_path):
    path = str(tmp_path / "ck.json")
    reference = compile_workload("sha")
    run_pa(reference, _config(workers=2))

    faultinject.arm("scale.worker.crash:raise:1")
    interrupted = compile_workload("sha")
    partial = run_pa(interrupted, _config(workers=2, max_rounds=1,
                                          checkpoint_path=path))
    assert partial.shards_retried >= 1
    checkpoint = load_checkpoint(path)
    assert checkpoint.shards_retried == partial.shards_retried
    assert checkpoint.shards_quarantined == 0

    faultinject.disarm_all()
    resumed = module_from_checkpoint(checkpoint)
    config = config_from_dict(checkpoint.config)
    config.max_rounds = PAConfig().max_rounds
    config.checkpoint_path = None
    result = run_pa(resumed, config, resume=checkpoint)
    assert resumed.render() == reference.render()
    assert result.shards_retried >= checkpoint.shards_retried


# ----------------------------------------------------------------------
# backoff: deterministic, capped, governor-aware
# ----------------------------------------------------------------------
def test_backoff_is_deterministic_and_capped():
    governor = RunGovernor()
    assert _backoff(1, governor) == BACKOFF_BASE
    assert _backoff(2, governor) == BACKOFF_BASE * 2
    assert _backoff(10, governor) == BACKOFF_CAP


def test_backoff_never_outlives_the_governor_budget():
    governor = RunGovernor(time_budget=0.01)
    assert _backoff(10, governor) <= 0.01
    governor.force_expire()
    assert _backoff(1, governor) == 0.0
