"""Benchmark regression comparison (benchmarks/regress.py)."""

import copy
import json
import os

import pytest

from benchmarks.harness import BASELINE_SKIP
from benchmarks.regress import (
    RESULT_METRICS,
    SCALE_METRICS,
    compare,
    main,
)

BASELINE = {
    "schema": "repro.bench/1",
    "workloads": {
        "sha": {
            "instructions": 619,
            "engines": {
                "sfx": {"saved": 38, "rounds": 10, "calls": 9,
                        "crossjumps": 1, "instructions_after": 581,
                        "seconds": 0.1, "lattice_nodes": 0},
                "edgar": {"saved": 49, "rounds": 4, "calls": 8,
                          "crossjumps": 0, "instructions_after": 570,
                          "seconds": 30.0, "lattice_nodes": 40321},
            },
        },
    },
}


class TestCompare:
    def test_identical_documents_pass(self):
        failures, warnings = compare(BASELINE, copy.deepcopy(BASELINE))
        assert failures == [] and warnings == []

    @pytest.mark.parametrize("metric", RESULT_METRICS)
    def test_result_metric_drift_fails(self, metric):
        current = copy.deepcopy(BASELINE)
        current["workloads"]["sha"]["engines"]["edgar"][metric] += 1
        failures, __ = compare(BASELINE, current)
        assert len(failures) == 1
        assert metric in failures[0]

    def test_slowdown_warns_within_default_tolerance(self):
        current = copy.deepcopy(BASELINE)
        current["workloads"]["sha"]["engines"]["edgar"]["seconds"] = 33.0
        failures, warnings = compare(BASELINE, current)
        assert failures == []
        assert len(warnings) == 1 and "+10.0%" in warnings[0]

    def test_slowdown_inside_band_is_silent(self):
        current = copy.deepcopy(BASELINE)
        current["workloads"]["sha"]["engines"]["edgar"]["seconds"] = 31.0
        assert compare(BASELINE, current) == ([], [])

    def test_speedup_is_silent(self):
        current = copy.deepcopy(BASELINE)
        current["workloads"]["sha"]["engines"]["edgar"]["seconds"] = 10.0
        assert compare(BASELINE, current) == ([], [])

    def test_fail_on_time_escalates(self):
        current = copy.deepcopy(BASELINE)
        current["workloads"]["sha"]["engines"]["edgar"]["seconds"] = 40.0
        failures, warnings = compare(BASELINE, current,
                                     fail_on_time=True)
        assert warnings == [] and len(failures) == 1

    def test_missing_engine_fails(self):
        current = copy.deepcopy(BASELINE)
        del current["workloads"]["sha"]["engines"]["sfx"]
        failures, __ = compare(BASELINE, current)
        assert failures == ["sha/sfx: engine missing from current run"]

    def test_missing_workload_fails(self):
        current = copy.deepcopy(BASELINE)
        current["workloads"] = {}
        failures, __ = compare(BASELINE, current)
        assert failures == ["sha: workload missing from current run"]

    def test_extra_cells_in_current_are_ignored(self):
        current = copy.deepcopy(BASELINE)
        current["workloads"]["crc"] = copy.deepcopy(
            BASELINE["workloads"]["sha"]
        )
        assert compare(BASELINE, current) == ([], [])

    def test_workload_size_change_fails(self):
        current = copy.deepcopy(BASELINE)
        current["workloads"]["sha"]["instructions"] = 700
        failures, __ = compare(BASELINE, current)
        assert any("workload changed" in f for f in failures)

    @pytest.mark.parametrize("metric", SCALE_METRICS)
    def test_scale_metric_drift_warns_only(self, metric):
        baseline = copy.deepcopy(BASELINE)
        baseline["schema"] = "repro.bench/2"
        cell = baseline["workloads"]["sha"]["engines"]["edgar"]
        cell.update(shards=100, cache_hits=10,
                    lattice_nodes_reused=500)
        current = copy.deepcopy(baseline)
        current["workloads"]["sha"]["engines"]["edgar"][metric] += 1
        failures, warnings = compare(baseline, current)
        assert failures == []
        assert len(warnings) == 1 and metric in warnings[0]

    def test_v1_vs_v2_skips_absent_scale_fields(self):
        current = copy.deepcopy(BASELINE)
        current["schema"] = "repro.bench/2"
        cell = current["workloads"]["sha"]["engines"]["edgar"]
        cell.update(shards=100, cache_hits=10,
                    lattice_nodes_reused=500)
        assert compare(BASELINE, current) == ([], [])


class TestMain:
    def _write(self, tmp_path, name, doc):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    def test_exit_zero_on_match(self, tmp_path, capsys):
        base = self._write(tmp_path, "base.json", BASELINE)
        cur = self._write(tmp_path, "cur.json", BASELINE)
        assert main([base, cur]) == 0
        assert "ok:" in capsys.readouterr().err

    def test_exit_one_on_drift(self, tmp_path, capsys):
        current = copy.deepcopy(BASELINE)
        current["workloads"]["sha"]["engines"]["edgar"]["saved"] = 48
        base = self._write(tmp_path, "base.json", BASELINE)
        cur = self._write(tmp_path, "cur.json", current)
        assert main([base, cur]) == 1
        assert "saved changed 49 -> 48" in capsys.readouterr().err

    def test_schema_mismatch_rejected(self, tmp_path):
        base = self._write(tmp_path, "base.json", BASELINE)
        bad = self._write(tmp_path, "bad.json", {"schema": "nope"})
        with pytest.raises(SystemExit):
            main([base, bad])


class TestCommittedBaseline:
    def test_baseline_file_is_well_formed(self):
        path = os.path.join(
            os.path.dirname(__file__), os.pardir, os.pardir,
            "BENCH_all.json",
        )
        with open(path) as handle:
            doc = json.load(handle)
        assert doc["schema"] == "repro.bench/2"
        # the committed baseline covers the full workload set — the
        # scale engine emptied BASELINE_SKIP, so every grid cell is in
        assert BASELINE_SKIP == frozenset()
        assert set(doc["workloads"]) == {
            "bitcnts", "crc", "dijkstra", "patricia", "qsort",
            "rijndael", "search", "sha",
        }
        for name, entry in doc["workloads"].items():
            assert set(entry["engines"]) == {"sfx", "edgar"}
            for cell in entry["engines"].values():
                assert set(RESULT_METRICS) <= set(cell)
                assert set(SCALE_METRICS) <= set(cell)
        # a baseline must self-compare clean
        assert compare(doc, doc) == ([], [])
