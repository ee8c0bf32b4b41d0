"""Exporters for the telemetry registry.

Three output formats, each consuming the same :class:`Telemetry`
registry:

``chrome_trace``
    The Chrome ``trace_event`` JSON array format — open the file in
    ``chrome://tracing`` or https://ui.perfetto.dev to get a zoomable
    per-thread timeline of the span hierarchy.  Spans become complete
    ("X") events with microsecond timestamps.

``stats_dict`` / ``write_stats``
    A flat, machine-readable JSON dump: counters, gauges, histogram
    summaries, per-name span aggregates, and the structured event list.
    This is the schema the ``table1 --json`` benchmark output shares.

``tree_summary``
    A human-readable phase-time tree (the ``repro profile`` output):
    spans aggregated by their name-path with call counts, total and
    self time.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Optional, Tuple

from repro.resilience.atomicio import atomic_write_text
from repro.telemetry.core import SpanRecord, Telemetry

#: Version tag of the stats JSON schema.  /2 added histogram
#: percentiles (p50/p90/p99); /3 renamed the events ``pa.round`` ->
#: ``round.end`` (now one per round, ``mine_seconds`` gone: read the
#: ``pa.collect`` span), ``pa.extraction`` -> ``extraction`` and
#: ``scale.shard.timing`` -> ``shard.done``.  Consumers must ignore
#: unknown fields.
STATS_SCHEMA = "repro.telemetry.stats/3"


# ----------------------------------------------------------------------
# Chrome trace_event
# ----------------------------------------------------------------------
def chrome_trace(telemetry: Telemetry,
                 process_name: str = "repro") -> List[Dict[str, Any]]:
    """The registry's spans as a list of Chrome ``trace_event`` dicts,
    on one named process row with one named track per thread."""
    pid = os.getpid()
    threads: List[int] = []
    for record in telemetry.spans:
        if record.thread not in threads:
            threads.append(record.thread)

    events: List[Dict[str, Any]] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": pid,
            "tid": 0,
            "args": {"name": process_name},
        }
    ]
    # One thread_name metadata event per distinct thread, so the
    # chrome://tracing / Perfetto timeline shows readable labels
    # instead of raw thread idents.  The first-seen thread is the one
    # that opened the first span — the pipeline's main thread.
    for index, thread in enumerate(threads):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": pid,
                "tid": thread,
                "args": {"name": "main" if index == 0
                         else f"worker-{index}"},
            }
        )
    for record in telemetry.spans:
        event = {
            "name": record.name,
            "cat": record.name.split(".", 1)[0],
            "ph": "X",
            "ts": round(record.start * 1e6, 3),
            "dur": round(record.duration * 1e6, 3),
            "pid": pid,
            "tid": record.thread,
        }
        if record.args:
            event["args"] = _jsonable(record.args)
        events.append(event)
    return events


def write_chrome_trace(telemetry: Telemetry, path: str,
                       process_name: str = "repro") -> None:
    atomic_write_text(path, json.dumps(chrome_trace(telemetry,
                                                    process_name)))


# ----------------------------------------------------------------------
# flat stats dump
# ----------------------------------------------------------------------
def stats_dict(telemetry: Telemetry) -> Dict[str, Any]:
    """Counters, gauges, histogram + span aggregates, and events."""
    span_summary: Dict[str, Dict[str, float]] = {}
    for record in telemetry.spans:
        entry = span_summary.get(record.name)
        if entry is None:
            entry = span_summary[record.name] = {
                "count": 0,
                "total_seconds": 0.0,
                "min_seconds": record.duration,
                "max_seconds": record.duration,
            }
        entry["count"] += 1
        entry["total_seconds"] += record.duration
        entry["min_seconds"] = min(entry["min_seconds"], record.duration)
        entry["max_seconds"] = max(entry["max_seconds"], record.duration)
    return {
        "schema": STATS_SCHEMA,
        "counters": {
            name: counter.value
            for name, counter in sorted(telemetry.counters.items())
        },
        "gauges": {
            name: gauge.value
            for name, gauge in sorted(telemetry.gauges.items())
        },
        "histograms": {
            name: histogram.as_dict()
            for name, histogram in sorted(telemetry.histograms.items())
        },
        "spans": dict(sorted(span_summary.items())),
        "events": [_jsonable(event) for event in telemetry.events],
    }


def write_stats(telemetry: Telemetry, path: str) -> None:
    atomic_write_text(
        path, json.dumps(stats_dict(telemetry), indent=2) + "\n"
    )


def _jsonable(value: Any) -> Any:
    """Best-effort conversion of span/event payloads to JSON types."""
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


# ----------------------------------------------------------------------
# human-readable phase tree
# ----------------------------------------------------------------------
class _TreeNode:
    __slots__ = ("name", "count", "total", "child_total", "children")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total = 0.0
        self.child_total = 0.0
        self.children: Dict[str, "_TreeNode"] = {}


def _build_tree(spans: List[SpanRecord]) -> _TreeNode:
    by_ident = {record.ident: record for record in spans}
    # path of a span = chain of ancestor names; aggregate per path
    path_cache: Dict[int, Tuple[str, ...]] = {}

    def path_of(record: SpanRecord) -> Tuple[str, ...]:
        cached = path_cache.get(record.ident)
        if cached is not None:
            return cached
        if record.parent is not None and record.parent in by_ident:
            parent_path = path_of(by_ident[record.parent])
        else:
            parent_path = ()
        path = parent_path + (record.name,)
        path_cache[record.ident] = path
        return path

    root = _TreeNode("")
    for record in spans:
        node = root
        for name in path_of(record):
            child = node.children.get(name)
            if child is None:
                child = node.children[name] = _TreeNode(name)
            node = child
        node.count += 1
        node.total += record.duration
        if record.parent is not None and record.parent in by_ident:
            parent = root
            for name in path_of(by_ident[record.parent]):
                parent = parent.children[name]
            parent.child_total += record.duration
    return root


def tree_summary(telemetry: Telemetry,
                 min_seconds: float = 0.0) -> str:
    """Render the aggregated span tree, deepest-total-first per level."""
    root = _build_tree(telemetry.spans)
    lines: List[str] = []
    header = f"{'phase':<48} {'count':>7} {'total':>9} {'self':>9}"
    lines.append(header)
    lines.append("-" * len(header))

    def emit(node: _TreeNode, depth: int) -> None:
        for child in sorted(node.children.values(),
                            key=lambda c: -c.total):
            if child.total < min_seconds:
                continue
            label = "  " * depth + child.name
            self_time = max(0.0, child.total - child.child_total)
            lines.append(
                f"{label:<48} {child.count:>7} "
                f"{child.total:>8.3f}s {self_time:>8.3f}s"
            )
            emit(child, depth + 1)

    emit(root, 0)
    if len(lines) == 2:
        lines.append("(no spans recorded)")
    return "\n".join(lines)


def counters_summary(telemetry: Telemetry, limit: Optional[int] = None
                     ) -> str:
    """Render the counter registry as aligned ``name  value`` lines."""
    items = sorted(telemetry.counters.items())
    if limit is not None:
        items = items[:limit]
    if not items:
        return "(no counters recorded)"
    width = max(len(name) for name, __ in items)
    return "\n".join(
        f"{name:<{width}}  {counter.value}" for name, counter in items
    )
