"""The ``variance`` subcommand and the compile-knob CLI flags."""

import json

import pytest

from repro.cli import main

SOURCE = """
int f1(int x) {
    int a = x + 3;
    int b = a * x;
    int c = b - 2;
    return c ^ a;
}
int f2(int x) {
    int a = x + 3;
    int b = a * x;
    int c = b - 2;
    return (c ^ a) + 9;
}
int main() {
    print_int(f1(4) + f2(6));
    print_nl(0);
    return 0;
}
"""


@pytest.fixture
def mini_c(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(SOURCE)
    return str(path)


def test_variance_json_report(mini_c, tmp_path, capsys):
    out = tmp_path / "variance.json"
    code = main([
        "variance", "--workload", mini_c, "--variants", "3",
        "--engine", "sfx", "--json", str(out),
    ])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["schema"] == "repro.variance/1"
    assert report["oracle_ok"] is True
    assert len(report["variants"]) == 3
    human = capsys.readouterr().out
    assert "fragment overlap" in human


def test_variance_bare_json_prints_report_to_stdout(mini_c, capsys):
    code = main([
        "variance", "--workload", mini_c, "--variants", "2",
        "--engine", "sfx", "--json",
    ])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["schema"] == "repro.variance/1"


def test_variance_fuzzed_source(capsys):
    code = main([
        "variance", "--fuzz-seed", "3", "--variants", "2",
        "--engine", "sfx",
    ])
    assert code == 0
    assert "fuzz-3" in capsys.readouterr().out


def test_variance_min_overlap_gate_can_fail(mini_c, capsys):
    # an impossible gate (> 1.0) must trip the soft-gate exit code
    code = main([
        "variance", "--workload", mini_c, "--variants", "2",
        "--engine", "sfx", "--min-overlap", "1.1",
    ])
    assert code == 1
    assert "min-overlap" in capsys.readouterr().err


def test_variance_ledger_out(mini_c, tmp_path):
    ledger_path = tmp_path / "ledger.jsonl"
    code = main([
        "variance", "--workload", mini_c, "--variants", "2",
        "--engine", "sfx", "--ledger-out", str(ledger_path),
    ])
    assert code == 0
    types = {
        json.loads(line)["type"]
        for line in ledger_path.read_text().splitlines()
    }
    assert "variance.variant" in types
    assert "variance.summary" in types


def test_variance_rejects_unknown_workload(capsys):
    with pytest.raises(SystemExit):
        main(["variance", "--workload", "no-such-thing"])


def test_variance_refuses_to_overwrite_json(mini_c, tmp_path):
    out = tmp_path / "variance.json"
    out.write_text("{}")
    with pytest.raises(SystemExit) as exc:
        main([
            "variance", "--workload", mini_c, "--variants", "2",
            "--engine", "sfx", "--json", str(out),
        ])
    assert "refusing to overwrite" in str(exc.value)
    assert out.read_text() == "{}"
    with pytest.raises(SystemExit) as exc:
        main([
            "variance", "--workload", mini_c, "--variants", "2",
            "--engine", "sfx", "--json",
            str(tmp_path / "nope" / "variance.json"),
        ])
    assert "does not exist" in str(exc.value)


# ----------------------------------------------------------------------
# compile-knob flags
# ----------------------------------------------------------------------
def test_compile_knob_flags_change_the_listing(mini_c, capsys):
    assert main(["compile", mini_c]) == 0
    baseline = capsys.readouterr().out
    assert main(["compile", mini_c, "--no-schedule"]) == 0
    unscheduled = capsys.readouterr().out
    assert main(["compile", mini_c, "--peephole"]) == 0
    peepholed = capsys.readouterr().out
    assert unscheduled != baseline
    assert len(peepholed.splitlines()) < len(baseline.splitlines())


def test_compile_layout_seed_reorders_functions(mini_c, capsys):
    assert main(["compile", mini_c, "--layout-seed", "1"]) == 0
    shuffled = capsys.readouterr().out
    assert main(["compile", mini_c]) == 0
    baseline = capsys.readouterr().out
    assert sorted(shuffled.splitlines()) == sorted(baseline.splitlines())


def test_compile_image_out_and_run_round_trip(mini_c, tmp_path, capsys):
    img = tmp_path / "prog.img"
    assert main(["compile", mini_c, "--image-out", str(img)]) == 0
    capsys.readouterr()
    assert main(["run", mini_c]) == 0
    direct = capsys.readouterr().out
    assert main(["run", str(img)]) == 0
    via_image = capsys.readouterr().out
    assert via_image == direct


def test_corrupted_image_exits_with_typed_diagnostic(tmp_path, capsys):
    img = tmp_path / "bad.img"
    img.write_bytes(b"RIMG" + b"\x00" * 40)
    code = main(["run", str(img)])
    assert code == 5
    err = capsys.readouterr().err
    assert "error[REPRO-IMAGE]" in err
    assert "Traceback" not in err


def test_truncated_image_exits_with_typed_diagnostic(mini_c, tmp_path,
                                                     capsys):
    img = tmp_path / "prog.img"
    assert main(["compile", mini_c, "--image-out", str(img)]) == 0
    img.write_bytes(img.read_bytes()[:50])
    code = main(["pa", str(img)])
    assert code == 5
    assert "error[REPRO-IMAGE]" in capsys.readouterr().err
