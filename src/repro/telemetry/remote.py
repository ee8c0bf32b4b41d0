"""Cross-process metrics: the wire format of a shard's spans and metrics.

Spans, counters, gauges and histograms only.  A shard mines inside the
one capture scope of the event model
(:func:`repro.telemetry.events.capture`), in a worker or in the parent;
the scope isolates the process-global registry (the miners'
module-level ``_TELEMETRY`` references keep working untouched) and
uses this module to move what it recorded:

1. On exit the scope takes a :func:`snapshot` of the isolated registry
   — a plain JSON-able dict, schema ``repro.telemetry.remote/2`` —
   which travels back to the parent inside the pickled shard result
   next to the shard's events.
2. :func:`repro.telemetry.events.replay` calls :func:`merge_snapshot`
   for each shard **in deterministic shard order**: span idents are
   re-based into the parent's serial space, snapshot-root spans are
   attached under the parent's currently open span (so the profile
   tree nests worker work under ``scale.mine``), counters add,
   histograms merge reservoirs, and the worker's real pid is kept on
   every record so the Chrome trace exporter can lay out one named
   track per process.

Timestamps: span ``start`` values are registry-epoch-relative; the
snapshot converts them to *absolute* ``time.perf_counter()`` readings
and the merge re-bases them onto the parent's epoch.  On Linux,
``perf_counter`` is CLOCK_MONOTONIC — system-wide, not per-process —
so worker spans land at their true wall-clock position in the merged
timeline.

Determinism: merged *counter values* and span counts are a pure
function of module + config (same shards, same work), so stats output
stays identical across worker counts; only durations, pids and
timestamps differ — exactly the fields a trace exists to show.
"""

from __future__ import annotations

import os
from typing import Any, Dict, Optional

from repro.telemetry.core import SpanRecord, Telemetry
from repro.telemetry.metrics import Counter, Gauge, Histogram

#: Version tag of the worker snapshot wire format.  Snapshots are
#: transient (never cached, never persisted), so a bump only needs to
#: keep :func:`merge_snapshot` in sync with :func:`snapshot`.
SNAPSHOT_SCHEMA = "repro.telemetry.remote/2"

#: Default process label for worker snapshots.
WORKER_PROCESS = "shard-worker"


def snapshot(registry: Telemetry,
             process_name: str = WORKER_PROCESS) -> Dict[str, Any]:
    """Freeze *registry*'s recorded data as a picklable wire dict.

    Span starts are converted from epoch-relative to absolute
    ``perf_counter`` readings so the consumer can re-base them onto its
    own epoch (`merge_snapshot`).
    """
    with registry._lock:
        spans = [
            [
                record.ident,
                record.parent,
                record.name,
                registry._epoch + record.start,
                record.duration,
                record.thread,
                record.args,
            ]
            for record in registry.spans
        ]
        return {
            "schema": SNAPSHOT_SCHEMA,
            "pid": os.getpid(),
            "process": process_name,
            "spans": spans,
            "counters": {
                name: counter.value
                for name, counter in registry.counters.items()
            },
            "gauges": {
                name: gauge.value
                for name, gauge in registry.gauges.items()
            },
            "histograms": {
                name: histogram.dump()
                for name, histogram in registry.histograms.items()
            },
        }


def merge_snapshot(registry: Telemetry,
                   snap: Optional[Dict[str, Any]]) -> None:
    """Stitch one worker :func:`snapshot` into *registry*.

    Spans get a fresh ident block (parent links remapped with them),
    snapshot roots are attached under the caller's currently open span,
    timestamps are re-based onto *registry*'s epoch, and the worker pid
    is recorded both per span and in ``registry.remote_processes`` for
    exporter labelling.  Call in deterministic shard order: counter and
    histogram merges are commutative, but gauge last-write-wins is
    not.
    """
    if snap is None or not registry.enabled:
        return
    own_pid = os.getpid()
    pid = int(snap.get("pid", 0))
    remote_pid = pid if pid != own_pid else 0
    stack = registry._stack()
    attach = stack[-1] if stack else None
    with registry._lock:
        if remote_pid:
            registry.remote_processes.setdefault(
                remote_pid, str(snap.get("process", WORKER_PROCESS))
            )
        offset = registry._serial
        max_ident = 0
        for ident, parent, name, abs_start, duration, thread, args \
                in snap.get("spans", ()):
            max_ident = max(max_ident, ident)
            registry.spans.append(
                SpanRecord(
                    ident=offset + ident,
                    parent=(offset + parent if parent is not None
                            else attach),
                    name=name,
                    start=abs_start - registry._epoch,
                    duration=duration,
                    thread=thread,
                    args=args,
                    pid=remote_pid,
                )
            )
        registry._serial = offset + max_ident
        for name, value in snap.get("counters", {}).items():
            counter = registry.counters.get(name)
            if counter is None:
                counter = registry.counters[name] = Counter()
            counter.add(value)
        for name, value in snap.get("gauges", {}).items():
            gauge = registry.gauges.get(name)
            if gauge is None:
                gauge = registry.gauges[name] = Gauge()
            gauge.set(value)
        for name, data in snap.get("histograms", {}).items():
            histogram = registry.histograms.get(name)
            if histogram is None:
                histogram = registry.histograms[name] = Histogram()
            histogram.merge(data)


__all__ = [
    "SNAPSHOT_SCHEMA",
    "WORKER_PROCESS",
    "merge_snapshot",
    "snapshot",
]
