"""Tests of the performance benchmark itself.

    PYTHONPATH=src python -m pytest perfbench/test_bench.py -q

They run crc only: a workload spec is plain data, so the tests pass
small ones to the same functions the benchmark runs.
"""

from __future__ import annotations

import copy
import json
import os
import re
import sys
import time

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import bench  # noqa: E402
import regress  # noqa: E402
from tracer import Entry, Layer, Tracer, missing_entries  # noqa: E402

from repro.isa.assembler import parse_instruction  # noqa: E402

CRC = bench.Workload("crc", "edgar", mibench=("crc",))
NAME = re.compile(r"[A-Za-z0-9_.-]+")


def _benchmark_json():
    with open(os.path.join(HERE, os.pardir, "BENCHMARK.json")) as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def crc_runs():
    """One untraced and one traced single-pass run of crc."""
    return {"untraced": [bench.run(CRC, 1, 0, trace=False)],
            "traced": bench.run(CRC, 1, 0, trace=True)}


def test_tracer_is_inert_and_self_times_add_up():
    source = bench.PROGRAMS["crc"].source
    plain = bench.minicc.compile_to_module(source)
    plain_result = bench.abstract(CRC, plain)
    traced = bench.minicc.compile_to_module(source)
    with Tracer(bench.PA_LAYERS) as tracer:
        started = time.perf_counter()
        traced_result = bench.abstract(CRC, traced)
        elapsed = time.perf_counter() - started
    assert traced.render() == plain.render()
    assert (traced_result.saved, traced_result.rounds,
            traced_result.lattice_nodes) == (
        plain_result.saved, plain_result.rounds, plain_result.lattice_nodes)
    assert tracer.stats["pa.driver"].calls == 1
    assert tracer.stats["mining.canonical"].calls > 0
    total = sum(stats.self_s for stats in tracer.stats.values())
    assert abs(total - elapsed) <= 0.01 * elapsed
    # every replaced attribute is restored on exit
    import repro
    import repro.pa.driver as pa_driver
    import repro.mining.gspan as gspan
    assert not hasattr(pa_driver.run_pa, "__wrapped__")
    assert repro.run_pa is pa_driver.run_pa
    assert not hasattr(gspan.is_min, "__wrapped__")
    assert not hasattr(gspan.DgSpan.mine, "__wrapped__")


def test_corrupted_output_counts_as_failed(monkeypatch):
    real = bench.abstract

    def corrupting(workload, module):
        result = real(workload, module)
        main = next(f for f in module.functions if f.name == "main")
        for block in main.blocks:
            for index, insn in enumerate(block.instructions):
                if str(insn) == "mov r0, #7":     # crc's random seed
                    block.instructions[index] = parse_instruction(
                        "mov r0, #8")
                    return result
        raise AssertionError("crc's seed instruction not found")

    monkeypatch.setattr(bench, "abstract", corrupting)
    result = bench.run(CRC, 1, 0, trace=False)["result"]
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] == 1


def test_degraded_run_counts_as_failed():
    # a budget of 0 means "unbounded"; 1 ns runs out before round one
    no_time = bench.Workload("crc-no-time", "edgar", mibench=("crc",),
                             options=(("time_budget", 1e-9),))
    outcome = bench.run(no_time, 1, 0, trace=False)
    assert outcome["result"]["failed"] == outcome["result"]["attempted"]
    assert outcome["detail"]["samples"][0]["error"].startswith("degraded")


def test_missing_entry_point_reports_null(monkeypatch):
    ghosts = (
        Layer("ghost.function", (Entry("repro.pa.driver:no_such_function"),)),
        Layer("ghost.method",
              (Entry("repro.mining.gspan:DgSpan._no_such_method"),)),
        Layer("ghost.module", (Entry("repro.no_such_module:f"),)),
    )
    for layer in ghosts:
        assert missing_entries(layer) == [layer.entries[0].target]
    monkeypatch.setattr(bench, "PA_LAYERS", bench.PA_LAYERS + ghosts)
    monkeypatch.setattr(bench, "LAYERS", bench.LAYERS + ghosts)
    outcome = bench.run(CRC, 1, 0, trace=True)
    metrics = outcome["result"]["metrics"]
    assert outcome["result"]["correct"] is True
    for layer in ghosts:
        assert metrics[f"{layer.name}.self_s"]["value"] is None
        assert metrics[f"{layer.name}.calls"]["value"] is None
        assert any(layer.name in w for w in outcome["detail"]["warnings"])
    assert metrics["mining.canonical.calls"]["value"] > 0


def test_names_match_benchmark_json(crc_runs):
    spec = _benchmark_json()
    doc = bench.build_document({name: crc_runs for name in bench.WORKLOADS},
                               seed=1, seconds=0)
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert set(doc["workloads"]) == set(bench.WORKLOADS)
    assert spec["run_seconds"] == bench.DEFAULT_SECONDS
    for entry in doc["workloads"].values():
        assert {m["name"]: (m["unit"], m["better"])
                for m in spec["end_to_end"]} == {
            name: (row["unit"], row["better"])
            for name, row in entry["end_to_end"].items()}
        assert {m["name"]: (m["unit"], m["better"])
                for m in spec["per_layer"]} == {
            name: (row["unit"], row["better"])
            for name, row in entry["layers"].items()}
    names = [w["name"] for w in spec["workloads"]] + [
        m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name


def test_runs_report_every_metric(crc_runs):
    untraced = crc_runs["untraced"][0]["result"]
    traced = crc_runs["traced"]["result"]
    assert untraced["correct"] and traced["correct"]
    assert untraced["metrics"]["saved_insns"]["value"] == 11
    assert set(untraced["metrics"]) == set(bench.END_TO_END)
    assert set(traced["metrics"]) == set(bench.layer_metrics())
    for value in untraced["metrics"].values():
        assert value["value"] > 0


def _changed(doc, metric, factor):
    doc = copy.deepcopy(doc)
    row = doc["workloads"]["crc"]["end_to_end"][metric]
    for key in ("median", "min", "max"):
        row[key] *= factor
    row["samples"] = [v * factor for v in row["samples"]]
    return doc


def test_regress_gates_by_the_benchmark_bounds(crc_runs):
    spec = _benchmark_json()
    base = bench.build_document({"crc": crc_runs}, seed=1, seconds=0)
    lines, failed = regress.compare(base, base, spec)
    assert not failed
    assert not any(line.endswith("unresolved") for line in lines)

    __, failed = regress.compare(base, _changed(base, "pa_s", 1.5), spec)
    assert failed
    __, failed = regress.compare(base, _changed(base, "pa_s", 0.5), spec)
    assert not failed
    __, failed = regress.compare(base, _changed(base, "saved_insns", 0.99),
                                 spec)
    assert failed

    noisy = copy.deepcopy(base)
    row = noisy["workloads"]["crc"]["end_to_end"]["pa_s"]
    row["min"], row["max"] = row["median"] * 0.5, row["median"] * 1.5
    row["samples"] = [row["min"], row["median"], row["max"]]
    lines, failed = regress.compare(base, noisy, spec)
    assert not failed
    assert any("pa_s" in line and line.endswith("unresolved")
               for line in lines)

    worse = copy.deepcopy(base)
    worse["workloads"]["crc"]["failed_fraction"] = 0.5
    __, failed = regress.compare(base, worse, spec)
    assert failed
