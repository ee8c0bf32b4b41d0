"""OpenMetrics / Prometheus-textfile export of the telemetry registry.

One run, one scrape: :func:`write_openmetrics` renders the registry's
counters, gauges, histograms and span aggregates in the OpenMetrics
text exposition format (``--metrics-out FILE``), suitable for the
Prometheus node-exporter textfile collector or any OpenMetrics parser.

Mapping:

=================  ===================================================
registry primitive OpenMetrics family
=================  ===================================================
Counter            ``repro_<name>_total`` (type ``counter``)
Gauge              ``repro_<name>`` (type ``gauge``)
Histogram          ``repro_<name>`` (type ``summary``: quantile
                   samples + ``_sum``/``_count``)
span aggregates    ``repro_span_seconds_total{span="..."}`` and
                   ``repro_span_calls_total{span="..."}``
shard timings      ``repro_scale_shard_seconds_total{shard="N"}``,
                   ``..._lattice_nodes_total``, ``..._rounds_total``
                   (aggregated from ``shard.done`` events)
=================  ===================================================

Metric names are sanitised to ``[a-zA-Z0-9_:]`` and prefixed
``repro_``; counter families get the mandatory ``_total`` suffix; the
output ends with the mandatory ``# EOF`` line.  Like every exporter
here this is read-only over the registry and written atomically.
"""

from __future__ import annotations

import re
from typing import Any, Dict, List, Tuple

from repro.resilience.atomicio import atomic_write_text
from repro.telemetry.core import Telemetry

_NAME_BAD = re.compile(r"[^a-zA-Z0-9_:]")

#: Event kind carrying per-shard mining wall-clock (emitted by the
#: funnel, replayed by the mining parent in shard order).
SHARD_TIMING_EVENT = "shard.done"


def _family(name: str) -> str:
    clean = _NAME_BAD.sub("_", name)
    if clean and clean[0].isdigit():
        clean = "_" + clean
    return "repro_" + clean


def _num(value: Any) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, int):
        return str(value)
    return repr(float(value))


def _label(value: Any) -> str:
    text = str(value)
    return (text.replace("\\", "\\\\").replace('"', '\\"')
            .replace("\n", "\\n"))


def openmetrics_text(telemetry: Telemetry) -> str:
    """Render the registry in the OpenMetrics text format."""
    lines: List[str] = []

    for name, counter in sorted(telemetry.counters.items()):
        family = _family(name)
        lines.append(f"# TYPE {family} counter")
        lines.append(f"{family}_total {_num(counter.value)}")

    for name, gauge in sorted(telemetry.gauges.items()):
        family = _family(name)
        lines.append(f"# TYPE {family} gauge")
        lines.append(f"{family} {_num(gauge.value)}")

    for name, histogram in sorted(telemetry.histograms.items()):
        family = _family(name)
        lines.append(f"# TYPE {family} summary")
        for q in (50, 90, 99):
            lines.append(
                f'{family}{{quantile="{q / 100}"}} '
                f"{_num(histogram.percentile(q))}"
            )
        lines.append(f"{family}_sum {_num(histogram.total)}")
        lines.append(f"{family}_count {_num(histogram.count)}")

    span_seconds: Dict[str, float] = {}
    span_calls: Dict[str, int] = {}
    for record in telemetry.spans:
        span_seconds[record.name] = (
            span_seconds.get(record.name, 0.0) + record.duration
        )
        span_calls[record.name] = span_calls.get(record.name, 0) + 1
    if span_calls:
        lines.append("# TYPE repro_span_seconds counter")
        for name in sorted(span_seconds):
            lines.append(
                f'repro_span_seconds_total{{span="{_label(name)}"}} '
                f"{_num(span_seconds[name])}"
            )
        lines.append("# TYPE repro_span_calls counter")
        for name in sorted(span_calls):
            lines.append(
                f'repro_span_calls_total{{span="{_label(name)}"}} '
                f"{_num(span_calls[name])}"
            )

    # per-shard mining wall-clock, for load-imbalance dashboards
    shard_seconds, shard_nodes, shard_rounds = shard_totals(telemetry)
    if shard_rounds:
        for family, table in (
            ("repro_scale_shard_seconds", shard_seconds),
            ("repro_scale_shard_lattice_nodes", shard_nodes),
            ("repro_scale_shard_rounds", shard_rounds),
        ):
            lines.append(f"# TYPE {family} counter")
            for shard in sorted(table):
                lines.append(
                    f'{family}_total{{shard="{_label(shard)}"}} '
                    f"{_num(table[shard])}"
                )

    lines.append("# EOF")
    return "\n".join(lines) + "\n"


def shard_totals(telemetry: Telemetry) -> Tuple[Dict[Any, float],
                                                Dict[Any, int],
                                                Dict[Any, int]]:
    """Per shard: mining seconds, lattice nodes and rounds, summed over
    the ``shard.done`` events (all empty when every shard came from
    the cache)."""
    seconds: Dict[Any, float] = {}
    nodes: Dict[Any, int] = {}
    rounds: Dict[Any, int] = {}
    for event in telemetry.events:
        shard = event.get("shard")
        if event.get("name") != SHARD_TIMING_EVENT or shard is None:
            continue
        seconds[shard] = seconds.get(shard, 0.0) + float(
            event.get("seconds", 0))
        nodes[shard] = nodes.get(shard, 0) + int(
            event.get("lattice_nodes", 0))
        rounds[shard] = rounds.get(shard, 0) + 1
    return seconds, nodes, rounds


def write_openmetrics(telemetry: Telemetry, path: str) -> None:
    atomic_write_text(path, openmetrics_text(telemetry))


__all__ = [
    "SHARD_TIMING_EVENT",
    "openmetrics_text",
    "shard_totals",
    "write_openmetrics",
]
