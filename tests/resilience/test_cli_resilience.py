"""The CLI resilience boundary: checkpoint/resume flags, fault arming,
and the structured-diagnostic contract (typed ``error[CODE]`` lines and
documented exit codes — never a traceback)."""

import json

import pytest

from repro.cli import main
from repro.report.ledger import read_jsonl
from repro.resilience.errors import (
    EXIT_CHECKPOINT,
    EXIT_FAULT,
    EXIT_INTERNAL,
    EXIT_VERIFY,
)

WORKLOAD = "crc"
COMMON = [WORKLOAD, "--max-nodes", "4"]


def test_checkpoint_resume_roundtrip_bit_identical(tmp_path, capsys):
    reference = tmp_path / "reference.s"
    assert main(["pa", *COMMON, "-o", str(reference)]) == 0

    checkpoint = tmp_path / "ck.json"
    partial = tmp_path / "partial.s"
    code = main(["pa", *COMMON,
                 "--checkpoint", str(checkpoint),
                 "--fault", "extract.apply:interrupt:2",
                 "-o", str(partial)])
    assert code == 0            # interrupted runs degrade, not die
    err = capsys.readouterr().err
    assert "note: run degraded (interrupted)" in err
    assert partial.read_text() != reference.read_text()

    resumed = tmp_path / "resumed.s"
    code = main(["pa", WORKLOAD,
                 "--resume", str(checkpoint),
                 "-o", str(resumed)])
    assert code == 0
    assert "resumed from round 0" in capsys.readouterr().err
    assert resumed.read_text() == reference.read_text()


def test_injected_fault_is_a_typed_diagnostic(capsys):
    code = main(["pa", *COMMON, "--fault", "mis.solve:raise"])
    assert code == EXIT_FAULT
    err = capsys.readouterr().err
    assert "error[REPRO-FAULT]" in err
    assert "Traceback" not in err


def test_fault_abort_leaves_run_abort_ledger_record(tmp_path, capsys):
    ledger_out = tmp_path / "ledger.jsonl"
    code = main(["pa", *COMMON, "--fault", "mine.pass:raise",
                 "--ledger-out", str(ledger_out)])
    assert code == EXIT_FAULT
    capsys.readouterr()
    aborts = [r for r in read_jsonl(str(ledger_out))
              if r["type"] == "run.abort"]
    assert len(aborts) == 1
    assert aborts[0]["code"] == "REPRO-FAULT"


def test_aborted_run_closes_both_streams_with_run_abort(tmp_path, capsys):
    """``run.abort`` is emitted while every sink is still open: the
    ledger and the events stream both end with the same record."""
    ledger_out = tmp_path / "ledger.jsonl"
    events_out = tmp_path / "events.jsonl"
    code = main(["pa", WORKLOAD, "--fault", "extract.apply:raise",
                 "--ledger-out", str(ledger_out),
                 "--events-out", str(events_out)])
    assert code == EXIT_FAULT
    capsys.readouterr()
    last_record = read_jsonl(str(ledger_out))[-1]
    last_event = read_jsonl(str(events_out))[-1]
    assert last_record["type"] == last_event["kind"] == "run.abort"
    assert last_record["code"] == last_event["code"] == "REPRO-FAULT"
    assert last_record["message"] == last_event["message"]


def test_deadline_fault_degrades_to_exit_zero(capsys):
    code = main(["pa", *COMMON, "--fault", "mine.pass:deadline"])
    assert code == 0
    err = capsys.readouterr().err
    assert "note: run degraded (time_budget)" in err


def test_verify_recovery_over_cli(capsys):
    code = main(["pa", *COMMON, "--verify",
                 "--fault", "verify.counterexample:corrupt"])
    assert code == 0
    out, err = capsys.readouterr()
    assert "OK, verified" in out
    assert "verify_retries" in err


def test_exhausted_verify_retries_exit_two(capsys):
    code = main(["pa", *COMMON, "--verify",
                 "--fault", "verify.counterexample:corrupt:0",
                 "--verify-max-retries", "1"])
    assert code == EXIT_VERIFY
    err = capsys.readouterr().err
    assert "VERIFICATION FAILED" in err
    assert "Traceback" not in err


def test_resume_from_missing_checkpoint(tmp_path, capsys):
    code = main(["pa", WORKLOAD,
                 "--resume", str(tmp_path / "nope.json")])
    assert code == EXIT_CHECKPOINT
    assert "error[REPRO-CKPT]" in capsys.readouterr().err


def test_resume_from_corrupt_checkpoint(tmp_path, capsys):
    bad = tmp_path / "ck.json"
    bad.write_text("{\"schema\": \"repro.resilience.ckpt/1\"")
    code = main(["pa", WORKLOAD, "--resume", str(bad)])
    assert code == EXIT_CHECKPOINT
    assert "error[REPRO-CKPT]" in capsys.readouterr().err


def test_bad_fault_spec_rejected():
    with pytest.raises(SystemExit) as excinfo:
        main(["pa", *COMMON, "--fault", "mine.typo"])
    assert "unknown fault point" in str(excinfo.value)


def test_sfx_rejects_resilience_flags(tmp_path, capsys):
    with pytest.raises(SystemExit):
        main(["pa", WORKLOAD, "--engine", "sfx",
              "--checkpoint", str(tmp_path / "ck.json")])


def test_internal_error_is_typed(monkeypatch, capsys):
    import repro.cli as cli

    def explode(*args, **kwargs):
        raise RuntimeError("synthetic internal failure")

    monkeypatch.setattr(cli, "run_pa", explode)
    monkeypatch.delenv("REPRO_DEBUG", raising=False)
    code = main(["pa", *COMMON])
    assert code == EXIT_INTERNAL
    err = capsys.readouterr().err
    assert "error[REPRO-INTERNAL]" in err
    assert "synthetic internal failure" in err
    assert "Traceback" not in err


def test_repro_debug_reraises(monkeypatch):
    import repro.cli as cli

    def explode(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "run_pa", explode)
    monkeypatch.setenv("REPRO_DEBUG", "1")
    with pytest.raises(RuntimeError, match="boom"):
        main(["pa", *COMMON])


def test_checkpoint_file_may_already_exist(tmp_path):
    """Unlike the other outputs, the checkpoint is exempt from the
    clobber preflight — it is rewritten every round by design."""
    checkpoint = tmp_path / "ck.json"
    checkpoint.write_text("stale")
    assert main(["pa", *COMMON, "--checkpoint", str(checkpoint)]) == 0
    assert json.loads(checkpoint.read_text())["schema"] \
        == "repro.resilience.ckpt/1"


def test_env_armed_fault(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_FAULT", "mine.pass:raise")
    code = main(["pa", *COMMON])
    assert code == EXIT_FAULT
    assert "error[REPRO-FAULT]" in capsys.readouterr().err
