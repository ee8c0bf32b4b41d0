"""OpenMetrics exporter: format validity, counter ``_total`` suffixes,
summary quantiles, label escaping, per-shard timing families, and the
mandatory ``# EOF`` terminator."""

import re

from repro.telemetry import Telemetry, openmetrics_text, write_openmetrics

#: every non-comment line: <name>{labels}? <number>
_SAMPLE = re.compile(
    r"^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^{}]*\})? -?[0-9.e+-]+$"
)


def populated():
    t = Telemetry()
    t.enable()
    with t.span("pa.run"):
        with t.span("pa.round"):
            t.count("mining.lattice_nodes", 10)
    t.count("pa.rounds", 3)
    t.gauge("depth", 2)
    for value in (1, 2, 3, 4):
        t.observe("mis.component_size", value)
    return t


class TestFormat:
    def test_every_line_is_wellformed(self):
        text = openmetrics_text(populated())
        for line in text.splitlines():
            if line.startswith("#"):
                assert re.match(
                    r"^# (TYPE [a-zA-Z0-9_:]+ \w+|EOF)$", line
                )
            else:
                assert _SAMPLE.match(line), line

    def test_ends_with_eof(self):
        assert openmetrics_text(populated()).endswith("# EOF\n")
        assert openmetrics_text(Telemetry()).endswith("# EOF\n")

    def test_counters_get_total_suffix(self):
        text = openmetrics_text(populated())
        assert "# TYPE repro_pa_rounds counter" in text
        assert "repro_pa_rounds_total 3" in text
        assert "repro_mining_lattice_nodes_total 10" in text

    def test_gauge_and_summary(self):
        text = openmetrics_text(populated())
        assert "# TYPE repro_depth gauge" in text
        assert "repro_depth 2" in text
        assert "# TYPE repro_mis_component_size summary" in text
        assert 'repro_mis_component_size{quantile="0.5"}' in text
        assert "repro_mis_component_size_sum 10.0" in text
        assert "repro_mis_component_size_count 4" in text

    def test_span_aggregates(self):
        text = openmetrics_text(populated())
        assert 'repro_span_calls_total{span="pa.round"} 1' in text
        assert re.search(
            r'repro_span_seconds_total\{span="pa\.run"\} [0-9.e-]+',
            text,
        )

    def test_label_escaping(self):
        t = Telemetry()
        t.enable()
        with t.span('we"ird\nname'):
            pass
        text = openmetrics_text(t)
        assert '{span="we\\"ird\\nname"}' in text


class TestShardTimings:
    def test_per_shard_families(self):
        t = Telemetry()
        t.enable()
        for shard, seconds, nodes in ((0, 0.5, 10), (1, 1.5, 30),
                                      (0, 0.25, 5)):
            t.take("shard.done", {"shard": shard, "seconds": seconds,
                                  "lattice_nodes": nodes})
        text = openmetrics_text(t)
        assert "# TYPE repro_scale_shard_seconds counter" in text
        assert 'repro_scale_shard_seconds_total{shard="0"} 0.75' in text
        assert 'repro_scale_shard_seconds_total{shard="1"} 1.5' in text
        assert ('repro_scale_shard_lattice_nodes_total{shard="0"} 15'
                in text)
        assert 'repro_scale_shard_rounds_total{shard="0"} 2' in text

    def test_other_events_ignored(self):
        t = Telemetry()
        t.enable()
        t.take("extraction", {"benefit": 5})
        assert "repro_scale_shard" not in openmetrics_text(t)


def test_write_is_atomic_and_terminated(tmp_path):
    path = tmp_path / "metrics.prom"
    write_openmetrics(populated(), str(path))
    assert path.read_text().endswith("# EOF\n")
