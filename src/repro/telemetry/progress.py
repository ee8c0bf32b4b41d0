"""Live progress: the events sink of the one event model.

The events sink (:mod:`repro.telemetry.events` lists the kinds it
takes) feeds three consumers, all off by default and all purely
observational:

* a live TTY status line (``pa --progress``) — one ``\\r``-rewritten
  stderr line with round / shard / cache / node / savings state;
* a JSONL event stream (``--events-out FILE``, schema
  ``repro.telemetry.events/2``); the first record is a
  ``stream.begin`` carrying the schema tag;
* a straggler watchdog — shards whose heartbeats go stale past
  ``stall_after`` seconds are flagged once as ``shard.stalled`` events
  and counted, feeding the governor's degradation notes and the
  ``profile`` imbalance table.

Topology: the parent process attaches a :class:`ProgressBus`
(:func:`activate`); worker children attach a queue sink onto a
``multiprocessing.Queue`` handed to them through the worker
initializer (:func:`worker_attach`), and the parent drains it in its
poll loop.  Either way the sink stamps ``ts`` and ``pid`` where the
event happened.

Failure containment: the ``scale.progress`` fault point fires inside
:meth:`ProgressBus.dispatch` and queue creation; *any* exception there
marks the bus broken and detaches it — mining must never hang or die
because its progress feed did (see the chaos matrix).  The worker
queue is *bounded* (``QUEUE_MAX``) so a stalled parent can never
back-pressure or deadlock a worker: a full queue drops the event and
counts it, and the next event that does get through carries the drop
count in its ``dropped`` field — the parent accumulates it into
``bus.dropped``/``counts["bus.dropped"]``, so losses are visible in
the stats and the events stream rather than silent.  A worker whose
queue put fails for any other reason detaches its sink and keeps
mining.
"""

from __future__ import annotations

import contextlib
import json
import os
import queue as _queuelib
import sys
import time
from typing import Any, Dict, List, Optional

from repro.resilience.faultinject import fault
from repro.telemetry import events as _events

#: Version tag of the JSONL event stream.  Consumers must ignore
#: unknown event kinds and unknown fields.  /2 renamed ``round.start``
#: -> ``round.begin``, ``round.done`` -> ``round.end``, ``run.done``
#: -> ``run.end``, ``shard.retry`` -> ``scale.retry`` and
#: ``shard.quarantined`` -> ``scale.quarantine``, and added
#: ``run.abort``.
EVENTS_SCHEMA = "repro.telemetry.events/2"

#: Heartbeats from a hot loop are rate-limited to one per this many
#: seconds per process (other kinds are never limited).
HEARTBEAT_INTERVAL = 0.25

#: Default seconds without a heartbeat before a shard counts as stalled.
STALL_AFTER = 30.0

#: Worker-queue capacity.  Deep enough that drops only happen when the
#: parent has stopped draining for a long while; bounded so workers
#: can never block or balloon memory behind a stalled parent.
QUEUE_MAX = 10000

#: TTY status line refresh interval (seconds).
_RENDER_INTERVAL = 0.05

_BUS: Optional["ProgressBus"] = None
_NEXT_BEAT = 0.0


def _stamp(kind: str, record: Dict[str, Any]) -> Dict[str, Any]:
    event: Dict[str, Any] = {
        "kind": kind,
        "ts": round(time.time(), 6),
        "pid": os.getpid(),
    }
    event.update(record)
    return event


def active() -> Optional["ProgressBus"]:
    """The bus attached in this process, if any."""
    return _BUS


@contextlib.contextmanager
def activate(bus: Optional["ProgressBus"]):
    """Attach *bus* as this process's events sink for the block (None
    attaches nothing)."""
    global _BUS
    previous, _BUS = _BUS, bus
    if bus is not None:
        _events.attach(bus)
    try:
        yield bus
    finally:
        if bus is not None:
            _events.detach(bus)
        _BUS = previous


class _QueueSink(_events.Sink):
    """A worker's events sink: stamp, then put onto the parent's queue."""

    kinds = _events.EVENT_KINDS
    live = True

    def __init__(self, q):
        self.queue = q
        #: events dropped on a full queue since the last one that got
        #: through (rides on the next successful put as ``dropped``)
        self.dropped = 0

    def take(self, kind: str, record: Dict[str, Any]) -> None:
        event = _stamp(kind, record)
        if self.dropped:
            event["dropped"] = self.dropped
        try:
            self.queue.put_nowait(event)
        except _queuelib.Full:
            # The queue is bounded so a stalled parent can never
            # back-pressure a worker: drop the event, count it, stay
            # attached — the next event that fits carries the count.
            self.dropped += 1
        except Exception:
            # A broken pipe must never take mining down: detach and
            # mine on silently (the parent's watchdog will notice the
            # silence as a stall, which is the honest signal).
            _events.detach(self)
        else:
            self.dropped = 0


def worker_attach(q) -> None:
    """Called in a worker child: drop every sink inherited through
    ``fork`` (a child must never write the parent's ledger, TTY or
    JSONL stream directly) and send events to the parent's queue."""
    global _BUS, _NEXT_BEAT
    _events.detach_all()
    _BUS = None
    _NEXT_BEAT = 0.0
    if q is not None:
        _events.attach(_QueueSink(q))


def heartbeat(**fields) -> None:
    """A rate-limited ``heartbeat`` event, for hot loops (shard mining)."""
    global _NEXT_BEAT
    if not _events.wants("heartbeat"):
        return
    now = time.monotonic()
    if now < _NEXT_BEAT:
        return
    _NEXT_BEAT = now + HEARTBEAT_INTERVAL
    _events.emit("heartbeat", **fields)


# ----------------------------------------------------------------------
# the parent-side bus
# ----------------------------------------------------------------------
class ProgressBus(_events.Sink):
    """Parent-side sink: JSONL stream, TTY line, straggler tracking."""

    kinds = _events.EVENT_KINDS
    live = True

    def __init__(self, tty=None, events_path: Optional[str] = None,
                 stall_after: float = STALL_AFTER):
        self.tty = tty
        self.events_path = events_path
        self.stall_after = stall_after
        self.broken = False
        self.counts: Dict[str, int] = {}
        #: worker events lost to a full queue (accumulated from the
        #: ``dropped`` field events carry after an overflow)
        self.dropped = 0
        #: shard index -> monotonic time of its last sign of life
        self.inflight: Dict[int, float] = {}
        self.stalled: set = set()
        self.status: Dict[str, Any] = {
            "round": None, "shards": 0, "done": 0, "cache_hits": 0,
            "saved": 0, "nodes": 0, "retried": 0, "quarantined": 0,
        }
        self._nodes_by_shard: Dict[int, int] = {}
        self._handle = None
        self._queue = None
        self._last_render = 0.0
        if events_path:
            try:
                self._handle = open(events_path, "w")
            except OSError as exc:
                self._break(exc)
                return
        self.take("stream.begin", {"schema": EVENTS_SCHEMA})

    def take(self, kind: str, record: Dict[str, Any]) -> None:
        self.dispatch(_stamp(kind, record))

    # ------------------------------------------------------------------
    def worker_queue(self):
        """The mp queue pool children should publish to (lazy), or
        None when the bus is broken."""
        if self.broken:
            return None
        if self._queue is None:
            try:
                fault("scale.progress")
                import multiprocessing

                # bounded: a stalled parent must never back-pressure
                # or deadlock a publishing worker (drop-with-counter)
                self._queue = multiprocessing.Queue(maxsize=QUEUE_MAX)
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                self._break(exc)
                return None
        return self._queue

    def drain(self) -> None:
        """Dispatch every event queued by workers (non-blocking)."""
        if self._queue is None or self.broken:
            return
        while True:
            try:
                event = self._queue.get_nowait()
            except _queuelib.Empty:
                return
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                self._break(exc)
                return
            self.dispatch(event)

    def dispatch(self, event: Dict[str, Any]) -> None:
        """Track, stream and render one event; never raises
        (``KeyboardInterrupt`` excepted — anytime semantics win)."""
        if self.broken:
            return
        try:
            fault("scale.progress")
            self._track(event)
            if self._handle is not None:
                self._handle.write(json.dumps(event) + "\n")
                self._handle.flush()
            if self.tty is not None:
                self._render()
        except KeyboardInterrupt:
            raise
        except Exception as exc:
            self._break(exc)

    def stragglers(self) -> List[int]:
        """Newly stale in-flight shards (flagged once each).

        Records one ``shard.stalled`` event per new straggler (the
        watchdog is this sink's own, so are its records) and remembers
        it; a later heartbeat does not un-flag (the point is
        "this shard went dark for stall_after seconds at least once").
        """
        now = time.monotonic()
        fresh = [
            shard for shard, last in self.inflight.items()
            if shard not in self.stalled
            and now - last > self.stall_after
        ]
        for shard in fresh:
            self.stalled.add(shard)
            self.take("shard.stalled", {
                "shard": shard,
                "stalled_seconds": round(now - self.inflight[shard], 3),
            })
        return fresh

    def close(self) -> None:
        """Finish the TTY line, close the stream, drop the queue."""
        if self.tty is not None and not self.broken:
            try:
                self.tty.write("\n")
                self.tty.flush()
            except Exception:
                pass
        if self._handle is not None:
            try:
                self._handle.close()
            except Exception:
                pass
            self._handle = None
        if self._queue is not None:
            try:
                self._queue.close()
            except Exception:
                pass
            self._queue = None

    # ------------------------------------------------------------------
    def _break(self, exc: BaseException) -> None:
        """Degrade: mark broken, release resources, warn once."""
        self.broken = True
        if self._handle is not None:
            try:
                self._handle.close()
            except Exception:
                pass
            self._handle = None
        print(f"warning: progress stream disabled ({exc})",
              file=sys.stderr)

    def _track(self, event: Dict[str, Any]) -> None:
        kind = event.get("kind", "?")
        self.counts[kind] = self.counts.get(kind, 0) + 1
        lost = event.get("dropped")
        if lost:
            self.dropped += lost
            self.counts["bus.dropped"] = \
                self.counts.get("bus.dropped", 0) + lost
        status = self.status
        shard = event.get("shard")
        now = time.monotonic()
        if kind == "round.begin":
            status["round"] = event.get("round")
            status["shards"] = 0
            status["done"] = 0
        elif kind == "round.shards":
            status["shards"] = event.get("shards", 0)
            status["cache_hits"] += event.get("cached", 0)
            status["done"] = event.get("cached", 0)
        elif kind == "shard.start" and shard is not None:
            self.inflight[shard] = now
        elif kind == "heartbeat" and shard is not None:
            if shard in self.inflight:
                self.inflight[shard] = now
            nodes = event.get("lattice_nodes")
            if nodes is not None:
                self._nodes_by_shard[shard] = nodes
                status["nodes"] = sum(self._nodes_by_shard.values())
        elif kind == "shard.done" and shard is not None:
            self.inflight.pop(shard, None)
            status["done"] += 1
            nodes = event.get("lattice_nodes")
            if nodes is not None:
                self._nodes_by_shard[shard] = nodes
                status["nodes"] = sum(self._nodes_by_shard.values())
        elif kind == "scale.retry" and shard is not None:
            # the delivery failed: the shard is not in flight while it
            # backs off, so the watchdog must not call it stalled
            self.inflight.pop(shard, None)
            if event.get("retried"):
                status["retried"] += 1
        elif kind == "scale.quarantine" and shard is not None:
            self.inflight.pop(shard, None)
            if not event.get("recovered"):
                status["quarantined"] += 1
        elif kind == "round.end":
            status["saved"] += event.get("saved", 0)
            self._nodes_by_shard.clear()
            self.inflight.clear()

    def _render(self) -> None:
        now = time.monotonic()
        if now - self._last_render < _RENDER_INTERVAL:
            return
        self._last_render = now
        s = self.status
        parts = []
        if s["round"] is not None:
            parts.append(f"round {s['round']}")
        if s["shards"]:
            parts.append(f"shards {s['done']}/{s['shards']}")
        if s["cache_hits"]:
            parts.append(f"cache {s['cache_hits']} hit")
        if s["nodes"]:
            parts.append(f"{s['nodes']} nodes")
        parts.append(f"saved {s['saved']}")
        if s["retried"]:
            parts.append(f"retried {s['retried']}")
        if s["quarantined"]:
            parts.append(f"quarantined {s['quarantined']}")
        if self.stalled:
            parts.append(f"stalled {len(self.stalled)}")
        line = "[pa] " + " | ".join(parts)
        self.tty.write("\r" + line[:118].ljust(118))
        self.tty.flush()


__all__ = [
    "EVENTS_SCHEMA",
    "HEARTBEAT_INTERVAL",
    "QUEUE_MAX",
    "STALL_AFTER",
    "ProgressBus",
    "activate",
    "active",
    "heartbeat",
    "worker_attach",
]
