"""Cross-process capture/stitch: isolation of the one shard capture
scope, snapshot structure, and merge semantics (attachment under the
open span, ident re-basing, counter/histogram accumulation)."""

import os

import pytest

from repro import telemetry
from repro.telemetry import Telemetry, events
from repro.telemetry.core import GLOBAL
from repro.telemetry.events import capture, capture_spec, emit, replay
from repro.telemetry.remote import (
    SNAPSHOT_SCHEMA,
    merge_snapshot,
    snapshot,
)


def populate(registry):
    with registry.span("mining.mine", shard=1):
        with registry.span("mining.expand"):
            registry.count("mining.lattice_nodes", 5)
    registry.observe("mis.component_size", 3)
    registry.gauge("depth", 2)


@pytest.fixture
def global_registry():
    """capture() swaps state in the process-global registry only."""
    telemetry.reset()
    telemetry.enable()
    yield GLOBAL
    telemetry.disable()
    telemetry.reset()


class TestCapture:
    def test_capture_isolates_and_restores(self, global_registry):
        registry = global_registry
        registry.count("outer", 7)
        spec = capture_spec()
        assert spec["metrics"]
        with registry.span("outer.span"):
            with capture(spec) as captured:
                populate(registry)
                emit("shard.done", shard=1)
            # the capture scope swallowed everything recorded inside it
            assert "mining.lattice_nodes" not in registry.counters
            assert registry.counter_value("outer") == 7
            assert registry.events == []
            # and the surrounding span stack survived the swap
            assert registry._stack()
        # one snapshot carries both the metrics and the events
        snap = captured.snapshot
        metrics = snap["metrics"]
        assert metrics["schema"] == SNAPSHOT_SCHEMA
        assert metrics["pid"] == os.getpid()
        assert metrics["counters"]["mining.lattice_nodes"] == 5
        assert len(metrics["spans"]) == 2
        assert snap["records"] == [("shard.done", {"shard": 1})]
        # and one replay stitches both back in
        with events.context(round=3):
            replay(snap)
        assert registry.counter_value("mining.lattice_nodes") == 5
        assert registry.counter_value("outer") == 7
        assert registry.events == [
            {"name": "shard.done", "round": 3, "shard": 1}]

    def test_disabled_capture_suppresses(self, global_registry):
        registry = global_registry
        with capture(None) as captured:
            populate(registry)
            emit("shard.done", shard=1)
        assert captured.snapshot is None
        assert not registry.counters
        assert not registry.spans
        assert not registry.events
        assert registry.enabled
        # an ordered sink without the registry: events, no metrics
        spec = {"kinds": frozenset({"shard.done"}), "caps": {},
                "metrics": False}
        with capture(spec) as captured:
            populate(registry)
            emit("shard.done", shard=1)
        assert captured.snapshot["metrics"] is None
        assert captured.snapshot["records"] == [
            ("shard.done", {"shard": 1})]
        assert not registry.counters and registry.enabled

    def test_snapshot_carries_absolute_starts(self):
        registry = Telemetry()
        registry.enable()
        populate(registry)
        snap = snapshot(registry)
        # absolute = epoch + relative, so rebasing onto another
        # registry's epoch reconstructs comparable timestamps
        for ident, parent, name, start, *_ in snap["spans"]:
            assert start >= registry._epoch


class TestMerge:
    def test_merge_attaches_under_open_span(self):
        worker = Telemetry()
        worker.enable()
        populate(worker)
        snap = snapshot(worker)
        snap["pid"] = 99999          # simulate a remote process

        parent = Telemetry()
        parent.enable()
        with parent.span("scale.mine"):
            merge_snapshot(parent, snap)
        roots = [r for r in parent.spans if r.parent is None]
        assert [r.name for r in roots] == ["scale.mine"]
        mine = next(r for r in parent.spans if r.name == "mining.mine")
        assert mine.parent == roots[0].ident
        assert mine.pid == 99999
        expand = next(
            r for r in parent.spans if r.name == "mining.expand"
        )
        assert expand.parent == mine.ident
        assert parent.remote_processes[99999] == "shard-worker"

    def test_merge_accumulates_metrics(self):
        parent = Telemetry()
        parent.enable()
        parent.count("mining.lattice_nodes", 2)
        parent.observe("mis.component_size", 10)
        for _ in range(2):
            worker = Telemetry()
            worker.enable()
            populate(worker)
            merge_snapshot(parent, snapshot(worker))
        assert parent.counter_value("mining.lattice_nodes") == 12
        hist = parent.histograms["mis.component_size"]
        assert hist.count == 3
        assert hist.total == 16
        assert parent.gauges["depth"].value == 2
        assert parent.events == []      # events replay, they never merge

    def test_merge_rebases_idents_without_collisions(self):
        parent = Telemetry()
        parent.enable()
        populate(parent)
        worker = Telemetry()
        worker.enable()
        populate(worker)
        merge_snapshot(parent, snapshot(worker))
        idents = [r.ident for r in parent.spans]
        assert len(idents) == len(set(idents))
        # parent/child links stay internally consistent after re-basing
        by_ident = {r.ident: r for r in parent.spans}
        for record in parent.spans:
            if record.parent is not None:
                assert record.parent in by_ident

    def test_merge_into_disabled_registry_is_inert(self):
        worker = Telemetry()
        worker.enable()
        populate(worker)
        parent = Telemetry()
        merge_snapshot(parent, snapshot(worker))
        assert not parent.spans and not parent.counters

    def test_merge_none_is_inert(self):
        parent = Telemetry()
        parent.enable()
        merge_snapshot(parent, None)
        assert not parent.spans


class TestChromeTraceMultiPid:
    def test_named_process_rows_per_pid(self):
        from repro.telemetry import chrome_trace

        worker = Telemetry()
        worker.enable()
        populate(worker)
        snap = snapshot(worker)
        snap["pid"] = 4242           # simulate a remote worker
        parent = Telemetry()
        parent.enable()
        with parent.span("scale.mine"):
            merge_snapshot(parent, snap)
        events = chrome_trace(parent)
        process_rows = {
            e["pid"]: e["args"]["name"] for e in events
            if e.get("ph") == "M" and e.get("name") == "process_name"
        }
        assert process_rows[os.getpid()] == "repro"
        assert process_rows[4242] == "shard-worker"
        thread_rows = [
            e for e in events
            if e.get("ph") == "M" and e.get("name") == "thread_name"
            and e["pid"] == 4242
        ]
        assert thread_rows, "worker threads must be named"
        span_pids = {e["pid"] for e in events if e.get("ph") == "X"}
        assert {os.getpid(), 4242} <= span_pids
