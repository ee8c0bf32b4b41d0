"""Telemetry: hierarchical tracing, metrics, and profile export.

The measurement substrate of the whole pipeline.  Instrumented code
reports metrics to a process-global registry through the module-level
helpers (`span`, `count`, `gauge`, `observe`) and events through the
one `emit` of :mod:`repro.telemetry.events`; everything is off by
default and near-free while disabled.  See :mod:`repro.telemetry.core`
for the design notes and :mod:`repro.telemetry.export` for the
Chrome-trace / stats-JSON / tree-summary output formats.
"""

from repro.telemetry.core import (
    GLOBAL,
    SpanRecord,
    Telemetry,
    count,
    disable,
    enable,
    gauge,
    get,
    is_enabled,
    observe,
    reset,
    span,
    traced,
)
from repro.telemetry.export import (
    STATS_SCHEMA,
    chrome_trace,
    counters_summary,
    stats_dict,
    tree_summary,
    write_chrome_trace,
    write_stats,
)
from repro.telemetry.metrics import Counter, Gauge, Histogram
from repro.telemetry.progress import EVENTS_SCHEMA, ProgressBus

__all__ = [
    "GLOBAL",
    "Telemetry",
    "SpanRecord",
    "Counter",
    "Gauge",
    "Histogram",
    "get",
    "enable",
    "disable",
    "reset",
    "is_enabled",
    "span",
    "traced",
    "count",
    "gauge",
    "observe",
    "STATS_SCHEMA",
    "EVENTS_SCHEMA",
    "ProgressBus",
    "chrome_trace",
    "stats_dict",
    "tree_summary",
    "counters_summary",
    "write_chrome_trace",
    "write_stats",
]
