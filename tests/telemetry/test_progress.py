"""The progress bus: routing, JSONL schema, TTY line, heartbeat rate
limit, and graceful degradation on the ``scale.progress`` fault
point."""

import io
import json

import pytest

from repro.resilience import faultinject
from repro.telemetry import events, progress
from repro.telemetry.events import emit
from repro.telemetry.progress import EVENTS_SCHEMA, ProgressBus


@pytest.fixture(autouse=True)
def clean_faults():
    faultinject.disarm_all()
    yield
    faultinject.disarm_all()


@pytest.fixture(autouse=True)
def fresh_heartbeat(monkeypatch):
    """Every test starts with the heartbeat rate limit reset."""
    monkeypatch.setattr(progress, "_NEXT_BEAT", 0.0)


class TestRouting:
    def test_publish_without_routing_is_inert(self):
        emit("round.begin", round=0)     # must not raise

    def test_activate_routes_and_restores(self):
        bus = ProgressBus()
        with progress.activate(bus):
            assert events.wants("round.begin")
            emit("round.begin", round=3)
        assert not events.wants("round.begin")
        assert bus.counts == {"stream.begin": 1, "round.begin": 1}

    def test_publish_stamps_kind_ts_pid(self):
        bus = ProgressBus()
        seen = []
        bus.dispatch = seen.append
        with progress.activate(bus):
            emit("shard.start", shard=2)
        (event,) = seen
        assert event["kind"] == "shard.start"
        assert event["shard"] == 2
        assert isinstance(event["ts"], float)
        assert isinstance(event["pid"], int)

    def test_heartbeat_is_rate_limited(self):
        bus = ProgressBus()
        with progress.activate(bus):
            for _ in range(50):
                progress.heartbeat(shard=1)
        # one per HEARTBEAT_INTERVAL; a tight loop gets exactly one
        assert bus.counts.get("heartbeat") == 1


class TestEventsStream:
    def test_jsonl_begins_with_schema_record(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = ProgressBus(events_path=str(path))
        with progress.activate(bus):
            emit("round.begin", round=0)
            emit("round.end", round=0, saved=4)
        bus.close()
        lines = [json.loads(l) for l in path.read_text().splitlines()]
        assert lines[0]["kind"] == "stream.begin"
        assert lines[0]["schema"] == EVENTS_SCHEMA
        assert [l["kind"] for l in lines[1:]] == \
            ["round.begin", "round.end"]

    def test_unwritable_path_degrades_not_raises(self, tmp_path, capsys):
        bus = ProgressBus(events_path=str(tmp_path / "no" / "dir.jsonl"))
        assert bus.broken
        bus.dispatch({"kind": "round.begin"})        # inert, no raise
        assert "progress stream disabled" in capsys.readouterr().err


class TestTTY:
    def test_status_line_renders(self):
        tty = io.StringIO()
        bus = ProgressBus(tty=tty)
        bus._last_render = -1000.0
        bus.dispatch({"kind": "round.begin", "round": 2})
        bus._last_render = -1000.0
        bus.dispatch({"kind": "round.shards", "shards": 5, "cached": 1})
        line = tty.getvalue().split("\r")[-1]
        assert "round 2" in line
        assert "shards 1/5" in line

    def test_close_finishes_the_line(self):
        tty = io.StringIO()
        bus = ProgressBus(tty=tty)
        bus.close()
        assert tty.getvalue().endswith("\n")


class TestFaultDegradation:
    def test_dispatch_fault_breaks_not_raises(self, capsys):
        bus = ProgressBus()
        faultinject.arm("scale.progress:raise")
        bus.dispatch({"kind": "round.begin"})        # absorbs the fault
        assert bus.broken
        assert "progress stream disabled" in capsys.readouterr().err
        bus.dispatch({"kind": "round.end"})          # broken bus: inert

    def test_interrupt_mode_propagates(self):
        bus = ProgressBus()
        faultinject.arm("scale.progress:interrupt")
        with pytest.raises(KeyboardInterrupt):
            bus.dispatch({"kind": "round.begin"})
