"""Observability of the sharded engine, end to end: cross-process
trace stitching, worker-count instrumentation parity, progress-bus
integration, graceful chaos degradation, and the disabled-inert
bit-identity guard (observability off => byte-identical output)."""

import json
import os

import pytest

from repro import telemetry
from repro.pa.driver import PAConfig, run_pa
from repro.report import ledger
from repro.resilience import faultinject
from repro.telemetry import chrome_trace, progress
from repro.telemetry.progress import EVENTS_SCHEMA, ProgressBus
from repro.workloads import PROGRAMS, compile_workload


@pytest.fixture
def registry():
    telemetry.reset()
    telemetry.enable()
    yield telemetry.get()
    telemetry.disable()
    telemetry.reset()


def run_crc(workers, max_nodes=4):
    module = compile_workload("crc")
    result = run_pa(module, PAConfig(max_nodes=max_nodes,
                                     workers=workers))
    return module, result


class TestCrossProcessTrace:
    def test_worker_spans_stitched_with_real_pids(self, registry):
        __, result = run_crc(workers=2)
        assert result.saved > 0
        pids = {record.pid for record in registry.spans}
        assert 0 in pids, "parent spans keep pid 0 (local)"
        worker_pids = pids - {0}
        assert worker_pids, "worker spans must carry their real pid"
        assert os.getpid() not in worker_pids
        # intra-shard mining spans came through the stitch
        names = {record.name for record in registry.spans}
        assert "scale.shard.mine" in names
        assert registry.counter_value("mining.lattice_nodes") > 0
        assert "scale.shard.mine_seconds" in registry.histograms
        for pid in worker_pids:
            assert registry.remote_processes[pid] == "shard-worker"

    def test_chrome_trace_has_named_worker_processes(self, registry):
        run_crc(workers=2)
        events = chrome_trace(registry)
        process_rows = {
            e["pid"]: e["args"]["name"] for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert len(process_rows) >= 2
        assert process_rows[os.getpid()] == "repro"
        assert "shard-worker" in process_rows.values()

    def test_worker_spans_nest_under_scale_mine(self, registry):
        run_crc(workers=2)
        by_ident = {r.ident: r for r in registry.spans}
        for record in registry.spans:
            if record.name != "scale.shard.mine":
                continue
            assert record.parent is not None
            assert by_ident[record.parent].name == "scale.mine"


class TestInstrumentationParity:
    def test_counters_and_span_counts_match_across_workers(self):
        tallies = {}
        for workers in (1, 2):
            telemetry.reset()
            telemetry.enable()
            try:
                run_crc(workers=workers)
                counters = {
                    name: counter.value for name, counter
                    in telemetry.get().counters.items()
                }
                spans = {}
                for record in telemetry.get().spans:
                    spans[record.name] = spans.get(record.name, 0) + 1
                tallies[workers] = (counters, spans)
            finally:
                telemetry.disable()
                telemetry.reset()
        assert tallies[1][0] == tallies[2][0]
        assert tallies[1][1] == tallies[2][1]


class TestLedgerParity:
    def test_funnel_records_match_across_workers(self):
        """Shard mining records its funnel decisions in a ledger
        capture scope, in process and in workers alike, and the parent
        replays them in shard order: a cold-cache run's records are
        the same for any worker count."""
        funnel = {}
        for workers in (1, 4):
            ledger.reset()
            ledger.enable()
            try:
                run_crc(workers=workers)
                funnel[workers] = [
                    r for r in ledger.get().records
                    if r["type"] in ("mine.skips", "prune", "candidate")
                ]
            finally:
                ledger.disable()
                ledger.reset()
        assert {r["type"] for r in funnel[1]} == {
            "mine.skips", "prune", "candidate"
        }
        assert funnel[1] == funnel[4]


class TestProgressIntegration:
    def test_run_streams_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = ProgressBus(events_path=str(path))
        with progress.activate(bus):
            __, result = run_crc(workers=2)
        bus.close()
        assert result.saved > 0
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "stream.begin"
        assert lines[0]["schema"] == EVENTS_SCHEMA
        kinds = {l["kind"] for l in lines}
        assert {"round.begin", "round.shards", "shard.start",
                "shard.done", "round.end", "run.end"} <= kinds
        worker_pids = {
            l["pid"] for l in lines if l["kind"] == "shard.done"
        }
        assert worker_pids - {os.getpid()}, \
            "shard events must come from worker processes"

    def test_broken_bus_never_breaks_the_run(self, tmp_path, capsys):
        faultinject.arm("scale.progress:raise")
        bus = ProgressBus(events_path=str(tmp_path / "events.jsonl"))
        with progress.activate(bus):
            __, result = run_crc(workers=2)
        bus.close()
        assert bus.broken
        assert result.saved > 0
        assert not result.degraded
        assert "progress stream disabled" in capsys.readouterr().err

    def test_stragglers_surface_on_result(self, tmp_path):
        bus = ProgressBus(events_path=str(tmp_path / "e.jsonl"),
                          stall_after=0.0)
        with progress.activate(bus):
            __, result = run_crc(workers=2)
        bus.close()
        # with a zero threshold every in-flight shard trips the
        # watchdog at least once — and the run still completes
        assert result.stragglers > 0
        assert result.saved > 0


class TestCacheCounters:
    def test_result_matches_the_counters(self, registry):
        __, result = run_crc(workers=1)
        assert result.cache_misses > 0 and result.cache_hits > 0
        assert registry.counter_value("scale.cache.hits") == \
            result.cache_hits
        assert registry.counter_value("scale.cache.misses") == \
            result.cache_misses


class TestDisabledInert:
    """The bit-identity guard of ISSUE 8: every observability feature
    off => byte-identical modules on all bundled workloads."""

    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_observability_never_changes_output(self, name):
        plain = compile_workload(name)
        run_pa(plain, PAConfig(max_nodes=4, workers=2))

        telemetry.reset()
        telemetry.enable()
        bus = ProgressBus()
        try:
            with progress.activate(bus):
                observed = compile_workload(name)
                run_pa(observed, PAConfig(max_nodes=4, workers=2))
        finally:
            bus.close()
            telemetry.disable()
            telemetry.reset()
        assert plain.render() == observed.render()
