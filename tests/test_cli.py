"""The command-line interface."""

import json

import pytest

from repro.cli import main


@pytest.fixture
def mini_c(tmp_path):
    path = tmp_path / "prog.c"
    path.write_text(
        "int main() { print_int(6 * 7); print_nl(0); return 3; }"
    )
    return str(path)


@pytest.fixture
def assembly(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text(
        """
        _start:
            mov r0, #9
            swi #2
            mov r0, #0
            swi #0
        """
    )
    return str(path)


def test_compile(mini_c, capsys):
    assert main(["compile", mini_c]) == 0
    out = capsys.readouterr().out
    assert "main:" in out and "bl main" in out


def test_run_mini_c(mini_c, capsys):
    code = main(["run", mini_c])
    assert code == 3
    assert capsys.readouterr().out == "42\n"


def test_run_assembly(assembly, capsys):
    code = main(["run", assembly])
    assert code == 0
    assert capsys.readouterr().out == "9"


def test_pa_reports_and_verifies(tmp_path, capsys):
    path = tmp_path / "dup.s"
    path.write_text(
        """
        _start:
            bl f1
            bl f2
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
        """
    )
    out_path = tmp_path / "out.s"
    code = main(["pa", str(path), "--engine", "edgar",
                 "-o", str(out_path)])
    assert code == 0
    out = capsys.readouterr().out
    assert "saved" in out and "[OK]" in out
    assert out_path.exists()
    assert "pa_" in out_path.read_text()


@pytest.fixture
def duplicated_asm(tmp_path):
    path = tmp_path / "dup.s"
    path.write_text(
        """
        _start:
            bl f1
            bl f2
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
        """
    )
    return str(path)


def test_stats_on_workload(capsys):
    assert main(["stats", "crc"]) == 0
    assert "degree" in capsys.readouterr().out


def test_pa_telemetry_exports(duplicated_asm, tmp_path, capsys):
    trace_path = tmp_path / "trace.json"
    stats_path = tmp_path / "stats.json"
    code = main(["pa", duplicated_asm,
                 "--trace-out", str(trace_path),
                 "--stats-out", str(stats_path)])
    assert code == 0
    events = json.loads(trace_path.read_text())
    assert any(e.get("ph") == "X" and e["name"] == "pa.run"
               for e in events)
    stats = json.loads(stats_path.read_text())
    assert stats["schema"] == "repro.telemetry.stats/3"
    assert stats["counters"]["mining.lattice_nodes"] > 0
    assert stats["counters"]["mining.embeddings_enumerated"] > 0
    assert "mis.exact_components" in stats["counters"]
    assert "mis.greedy_components" in stats["counters"]
    rounds = [e for e in stats["events"] if e["name"] == "round.end"]
    assert rounds and rounds[-1]["applied"] == 0
    # a round's mining time is its pa.collect span
    assert stats["spans"]["pa.collect"]["count"] == len(rounds)
    assert any(e["name"] == "extraction" for e in stats["events"])


def test_pa_without_telemetry_flags_leaves_registry_empty(duplicated_asm):
    from repro import telemetry

    telemetry.reset()
    assert main(["pa", duplicated_asm]) == 0
    assert telemetry.get().spans == []
    assert telemetry.get().counters == {}


def test_profile_prints_phase_tree(duplicated_asm, capsys):
    assert main(["profile", duplicated_asm]) == 0
    out = capsys.readouterr().out
    assert "pa.run" in out
    assert "pa.round" in out
    assert "mining.lattice_nodes" in out
    assert "saved" in out


def test_table1_json_export(tmp_path, capsys):
    json_path = tmp_path / "table1.json"
    code = main(["table1", "crc", "--time-budget", "30",
                 "--json", str(json_path)])
    assert code == 0
    stats = json.loads(json_path.read_text())
    assert stats["schema"] == "repro.telemetry.stats/3"
    rows = [e for e in stats["events"] if e["name"] == "table1.row"]
    assert {(r["program"], r["engine"]) for r in rows} == {
        ("crc", "sfx"), ("crc", "dgspan"), ("crc", "edgar")
    }
    assert all(r["seconds"] >= 0 and "saved" in r for r in rows)


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        main(["frobnicate"])


def test_shard_imbalance_table_sums_shard_done_events():
    from repro.cli import _shard_imbalance_table
    from repro.telemetry.core import Telemetry

    registry = Telemetry()
    registry.enable()
    registry.take("extraction", {"benefit": 5})
    assert _shard_imbalance_table(registry) == ""
    for shard, seconds, nodes in ((0, 0.5, 10), (1, 1.5, 30),
                                  (0, 0.25, 5)):
        registry.take("shard.done", {"shard": shard, "seconds": seconds,
                                     "lattice_nodes": nodes})
    rows = _shard_imbalance_table(registry).splitlines()
    # shard, rounds, seconds, share, lattice nodes
    assert rows[1].split() == ["0", "2", "0.750", "33.3%", "15"]
    assert rows[2].split() == ["1", "1", "1.500", "66.7%", "30"]
    assert rows[3] == "imbalance: max/mean = 1.33x over 2 shards"
