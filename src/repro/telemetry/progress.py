"""Live progress: the events sink of the one event model.

The events sink (:mod:`repro.telemetry.events` lists the kinds it
takes) feeds two consumers, both off by default and both purely
observational:

* a live TTY status line (``pa --progress``) — one ``\\r``-rewritten
  stderr line with round / shard / cache / node / savings state;
* a JSONL event stream (``--events-out FILE``, schema
  ``repro.telemetry.events/3``); the first record is a
  ``stream.begin`` carrying the schema tag.

The process attaches a :class:`ProgressBus` (:func:`activate`); the
bus stamps ``ts`` and ``pid`` on every event.

Failure containment: the ``scale.progress`` fault point fires inside
:meth:`ProgressBus.dispatch`; *any* exception there marks the bus
broken and detaches it — mining must never die because its progress
feed did (see the chaos matrix).
"""

from __future__ import annotations

import contextlib
import json
import os
import sys
import time
from typing import Any, Dict, Optional

from repro.resilience.faultinject import fault
from repro.telemetry import events as _events

#: Version tag of the JSONL event stream.  Consumers must ignore
#: unknown event kinds and unknown fields.  /2 renamed ``round.start``
#: -> ``round.begin``, ``round.done`` -> ``round.end``, ``run.done``
#: -> ``run.end``, ``shard.retry`` -> ``scale.retry`` and
#: ``shard.quarantined`` -> ``scale.quarantine``, and added
#: ``run.abort``.  /3 dropped the kinds ``shard.stalled``,
#: ``scale.retry`` and ``scale.quarantine``, the ``workers`` field of
#: ``round.shards`` and the ``dropped`` field.
EVENTS_SCHEMA = "repro.telemetry.events/3"

#: Heartbeats from a hot loop are rate-limited to one per this many
#: seconds per process (other kinds are never limited).
HEARTBEAT_INTERVAL = 0.25

#: TTY status line refresh interval (seconds).
_RENDER_INTERVAL = 0.05

_NEXT_BEAT = 0.0


def _stamp(kind: str, record: Dict[str, Any]) -> Dict[str, Any]:
    event: Dict[str, Any] = {
        "kind": kind,
        "ts": round(time.time(), 6),
        "pid": os.getpid(),
    }
    event.update(record)
    return event


@contextlib.contextmanager
def activate(bus: Optional["ProgressBus"]):
    """Attach *bus* as this process's events sink for the block (None
    attaches nothing)."""
    if bus is not None:
        _events.attach(bus)
    try:
        yield bus
    finally:
        if bus is not None:
            _events.detach(bus)


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
# the bus
# ----------------------------------------------------------------------
class ProgressBus(_events.Sink):
    """The events sink: JSONL stream and TTY line."""

    kinds = _events.EVENT_KINDS

    def __init__(self, tty=None, events_path: Optional[str] = None):
        self.tty = tty
        self.events_path = events_path
        self.broken = False
        self.counts: Dict[str, int] = {}
        self.status: Dict[str, Any] = {
            "round": None, "shards": 0, "done": 0, "cache_hits": 0,
            "saved": 0, "nodes": 0,
        }
        self._nodes_by_shard: Dict[int, int] = {}
        self._handle = None
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

    def close(self) -> None:
        """Finish the TTY line, close the stream."""
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
        status = self.status
        shard = event.get("shard")
        if kind == "round.begin":
            status["round"] = event.get("round")
            status["shards"] = 0
            status["done"] = 0
        elif kind == "round.shards":
            status["shards"] = event.get("shards", 0)
            status["cache_hits"] += event.get("cached", 0)
            status["done"] = event.get("cached", 0)
        elif kind == "heartbeat" and shard is not None:
            nodes = event.get("lattice_nodes")
            if nodes is not None:
                self._nodes_by_shard[shard] = nodes
                status["nodes"] = sum(self._nodes_by_shard.values())
        elif kind == "shard.done" and shard is not None:
            status["done"] += 1
            nodes = event.get("lattice_nodes")
            if nodes is not None:
                self._nodes_by_shard[shard] = nodes
                status["nodes"] = sum(self._nodes_by_shard.values())
        elif kind == "round.end":
            status["saved"] += event.get("saved", 0)
            self._nodes_by_shard.clear()

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
        line = "[pa] " + " | ".join(parts)
        self.tty.write("\r" + line[:118].ljust(118))
        self.tty.flush()


__all__ = [
    "EVENTS_SCHEMA",
    "HEARTBEAT_INTERVAL",
    "ProgressBus",
    "activate",
    "heartbeat",
]
