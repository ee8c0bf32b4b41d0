"""The progress bus: routing, JSONL schema, TTY line, heartbeat rate
limit, straggler watchdog, bounded worker queue (drop-with-counter),
retry/quarantine tracking, and graceful degradation on the
``scale.progress`` fault point."""

import io
import json
import queue

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
def detached():
    """Every test starts (and ends) with no routing attached."""
    progress.worker_attach(None)
    yield
    progress.worker_attach(None)


class TestRouting:
    def test_publish_without_routing_is_inert(self):
        emit("round.begin", round=0)     # must not raise

    def test_activate_routes_and_restores(self):
        bus = ProgressBus()
        with progress.activate(bus):
            assert progress.active() is bus
            emit("round.begin", round=3)
        assert progress.active() is None
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


class TestWatchdog:
    def test_stale_shard_flagged_once(self, tmp_path):
        path = tmp_path / "events.jsonl"
        bus = ProgressBus(events_path=str(path), stall_after=0.0)
        bus.dispatch({"kind": "shard.start", "shard": 7})
        assert bus.stragglers() == [7]
        assert bus.stragglers() == []                # flagged once
        kinds = [json.loads(l)["kind"]
                 for l in path.read_text().splitlines()]
        assert kinds.count("shard.stalled") == 1

    def test_done_shard_never_flagged(self):
        bus = ProgressBus(stall_after=0.0)
        bus.dispatch({"kind": "shard.start", "shard": 7})
        bus.dispatch({"kind": "shard.done", "shard": 7})
        assert bus.stragglers() == []


class TestBoundedQueue:
    def test_worker_queue_is_bounded(self):
        bus = ProgressBus()
        q = bus.worker_queue()
        assert q._maxsize == progress.QUEUE_MAX
        bus.close()

    def test_full_queue_drops_counts_and_piggybacks(self):
        """A full queue never blocks or detaches the worker: events are
        dropped and counted, and the first event that fits carries the
        loss in its ``dropped`` field (then the counter resets)."""
        class FullQueue:
            def __init__(self):
                self.events = []
                self.full = True

            def put_nowait(self, event):
                if self.full:
                    raise queue.Full
                self.events.append(event)

        fq = FullQueue()
        progress.worker_attach(fq)
        emit("shard.done", shard=1)
        emit("shard.done", shard=2)
        assert fq.events == []                       # dropped, no raise
        fq.full = False
        emit("shard.done", shard=3)
        emit("shard.done", shard=4)
        assert fq.events[0]["dropped"] == 2
        assert "dropped" not in fq.events[1]         # counter reset

    def test_broken_queue_detaches_full_queue_does_not(self):
        class BrokenQueue:
            def put_nowait(self, event):
                raise OSError("broken pipe")

        progress.worker_attach(BrokenQueue())
        emit("shard.done", shard=1)                  # detaches, no raise
        assert not events.wants("shard.done")

    def test_parent_accumulates_drop_counts(self):
        bus = ProgressBus()
        bus.dispatch({"kind": "shard.done", "shard": 1, "dropped": 3})
        bus.dispatch({"kind": "shard.done", "shard": 2, "dropped": 2})
        assert bus.dropped == 5
        assert bus.counts["bus.dropped"] == 5


class TestRetryTracking:
    def test_retrying_shard_is_not_stalled_during_backoff(self):
        bus = ProgressBus(stall_after=0.0)
        bus.dispatch({"kind": "shard.start", "shard": 7})
        bus.dispatch({"kind": "scale.retry", "shard": 7, "attempt": 1,
                      "retried": True})
        assert bus.stragglers() == []        # backing off, not stuck
        assert bus.status["retried"] == 1

    def test_quarantine_counts_only_unrecovered_drops(self):
        bus = ProgressBus()
        bus.dispatch({"kind": "scale.quarantine", "shard": 3,
                      "recovered": True})
        bus.dispatch({"kind": "scale.quarantine", "shard": 4,
                      "recovered": False})
        assert bus.status["quarantined"] == 1

    def test_status_line_shows_retries_and_quarantines(self):
        tty = io.StringIO()
        bus = ProgressBus(tty=tty)
        bus._last_render = -1000.0
        bus.dispatch({"kind": "scale.retry", "shard": 1, "attempt": 1,
                      "retried": True})
        bus._last_render = -1000.0
        bus.dispatch({"kind": "scale.quarantine", "shard": 2,
                      "recovered": False})
        line = tty.getvalue().split("\r")[-1]
        assert "retried 1" in line
        assert "quarantined 1" in line


class TestFaultDegradation:
    def test_dispatch_fault_breaks_not_raises(self, capsys):
        bus = ProgressBus()
        faultinject.arm("scale.progress:raise")
        bus.dispatch({"kind": "round.begin"})        # absorbs the fault
        assert bus.broken
        assert "progress stream disabled" in capsys.readouterr().err
        bus.dispatch({"kind": "round.end"})          # broken bus: inert

    def test_queue_fault_returns_none(self, capsys):
        bus = ProgressBus()
        faultinject.arm("scale.progress:raise")
        assert bus.worker_queue() is None
        assert bus.broken

    def test_interrupt_mode_propagates(self):
        bus = ProgressBus()
        faultinject.arm("scale.progress:interrupt")
        with pytest.raises(KeyboardInterrupt):
            bus.dispatch({"kind": "round.begin"})
