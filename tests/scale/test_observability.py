"""Observability of the sharded engine, end to end: shard spans in
the profile tree, progress-bus integration, graceful chaos
degradation, and the disabled-inert bit-identity guard (observability
off => byte-identical output)."""

import json

import pytest

from repro import telemetry
from repro.pa.driver import PAConfig, run_pa
from repro.resilience import faultinject
from repro.telemetry import progress
from repro.telemetry.progress import EVENTS_SCHEMA, ProgressBus
from repro.workloads import PROGRAMS, compile_workload


@pytest.fixture
def registry():
    telemetry.reset()
    telemetry.enable()
    yield telemetry.get()
    telemetry.disable()
    telemetry.reset()


def run_crc(max_nodes=4):
    module = compile_workload("crc")
    result = run_pa(module, PAConfig(max_nodes=max_nodes))
    return module, result


class TestShardSpans:
    def test_shard_spans_nest_under_scale_mine(self, registry):
        __, result = run_crc()
        assert result.saved > 0
        by_ident = {r.ident: r for r in registry.spans}
        shard_spans = [r for r in registry.spans
                       if r.name == "scale.shard.mine"]
        assert shard_spans
        for record in shard_spans:
            assert record.parent is not None
            assert by_ident[record.parent].name == "scale.mine"
        assert registry.counter_value("mining.lattice_nodes") > 0
        assert "scale.shard.mine_seconds" in registry.histograms


class TestProgressIntegration:
    def test_run_streams_events(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = ProgressBus(events_path=str(path))
        with progress.activate(bus):
            __, result = run_crc()
        bus.close()
        assert result.saved > 0
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "stream.begin"
        assert lines[0]["schema"] == EVENTS_SCHEMA
        kinds = {l["kind"] for l in lines}
        assert {"round.begin", "round.shards", "shard.start",
                "shard.done", "round.end", "run.end"} <= kinds

    def test_broken_bus_never_breaks_the_run(self, tmp_path, capsys):
        faultinject.arm("scale.progress:raise")
        bus = ProgressBus(events_path=str(tmp_path / "events.jsonl"))
        with progress.activate(bus):
            __, result = run_crc()
        bus.close()
        assert bus.broken
        assert result.saved > 0
        assert not result.degraded
        assert "progress stream disabled" in capsys.readouterr().err


class TestCacheCounters:
    def test_result_matches_the_counters(self, registry):
        __, result = run_crc()
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
        run_pa(plain, PAConfig(max_nodes=4))

        telemetry.reset()
        telemetry.enable()
        bus = ProgressBus()
        try:
            with progress.activate(bus):
                observed = compile_workload(name)
                run_pa(observed, PAConfig(max_nodes=4))
        finally:
            bus.close()
            telemetry.disable()
            telemetry.reset()
        assert plain.render() == observed.render()
