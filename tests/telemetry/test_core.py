"""Span nesting, metric aggregation, and the disabled fast path."""

import threading

import pytest

from repro.telemetry import Telemetry
from repro.telemetry.core import NULL_SPAN
from repro.telemetry.events import emit


@pytest.fixture
def registry():
    t = Telemetry()
    t.enable()
    yield t
    t.disable()


class TestSpans:
    def test_nesting_parent_links(self, registry):
        with registry.span("outer"):
            with registry.span("middle"):
                with registry.span("inner"):
                    pass
            with registry.span("middle"):
                pass
        names = [r.name for r in registry.spans]
        # children exit (and record) before their parents
        assert names == ["inner", "middle", "middle", "outer"]
        by_name = {}
        for record in registry.spans:
            by_name.setdefault(record.name, []).append(record)
        outer = by_name["outer"][0]
        assert outer.parent is None
        for middle in by_name["middle"]:
            assert middle.parent == outer.ident
        assert by_name["inner"][0].parent in {
            m.ident for m in by_name["middle"]
        }

    def test_span_timing_contains_children(self, registry):
        with registry.span("outer"):
            with registry.span("inner"):
                pass
        inner, outer = registry.spans
        assert outer.start <= inner.start
        assert inner.start + inner.duration <= (
            outer.start + outer.duration + 1e-6
        )

    def test_span_args_recorded(self, registry):
        with registry.span("round", round=3) as span:
            span.set(candidates=7)
        record = registry.spans[0]
        assert record.args == {"round": 3, "candidates": 7}

    def test_traced_decorator(self, registry):
        @registry.traced("compute")
        def double(x):
            return 2 * x

        assert double(21) == 42
        assert [r.name for r in registry.spans] == ["compute"]

    def test_spans_carry_thread_id(self, registry):
        def worker():
            with registry.span("worker"):
                pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        with registry.span("main"):
            pass
        by_name = {r.name: r for r in registry.spans}
        assert by_name["worker"].thread != by_name["main"].thread
        # spans on different threads never parent each other
        assert by_name["main"].parent is None
        assert by_name["worker"].parent is None


class TestMetrics:
    def test_counter_aggregation(self, registry):
        registry.count("hits")
        registry.count("hits")
        registry.count("hits", 5)
        assert registry.counter_value("hits") == 7
        assert registry.counter_value("missing", -1) == -1

    def test_gauge_last_write_wins(self, registry):
        registry.gauge("depth", 3)
        registry.gauge("depth", 9)
        assert registry.gauges["depth"].value == 9

    def test_histogram_summary(self, registry):
        for value in (1.0, 2.0, 3.0):
            registry.observe("latency", value)
        histogram = registry.histograms["latency"]
        assert histogram.count == 3
        assert histogram.total == 6.0
        assert histogram.min == 1.0
        assert histogram.max == 3.0
        assert histogram.mean == 2.0

    def test_histogram_percentiles_exact_below_reservoir(self, registry):
        for value in range(1, 101):
            registry.observe("latency", value)
        summary = registry.histograms["latency"].as_dict()
        assert summary["p50"] == 50
        assert summary["p90"] == 90
        assert summary["p99"] == 99

    def test_histogram_reservoir_bounded_and_deterministic(self):
        from repro.telemetry.metrics import MAX_SAMPLES, Histogram

        first, second = Histogram(), Histogram()
        for value in range(3 * MAX_SAMPLES):
            first.observe(value)
            second.observe(value)
        assert len(first.samples) <= MAX_SAMPLES
        assert first.stride > 1
        # no RNG: two identical streams retain identical samples
        assert first.samples == second.samples
        assert first.as_dict() == second.as_dict()
        # decimated percentiles stay close to the true quantiles
        total = 3 * MAX_SAMPLES
        assert abs(first.percentile(50) - total / 2) <= first.stride
        assert abs(first.percentile(99) - total * 0.99) <= 3 * first.stride

    def test_histogram_percentiles_empty(self):
        from repro.telemetry.metrics import Histogram

        assert Histogram().percentile(50) == 0.0

    def test_events_in_order(self, registry):
        emit("round.end", round=0)
        emit("round.end", round=1)
        assert [e["round"] for e in registry.events] == [0, 1]

    def test_thread_safety_of_counters(self, registry):
        def worker():
            for __ in range(1000):
                registry.count("shared")

        threads = [threading.Thread(target=worker) for __ in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert registry.counter_value("shared") == 4000


class TestDisabled:
    def test_disabled_records_nothing(self):
        t = Telemetry()
        assert not t.enabled
        with t.span("ignored", x=1):
            t.count("ignored")
            t.gauge("ignored", 1)
            t.observe("ignored", 1)
            emit("round.end")
        assert t.spans == []
        assert t.counters == {}
        assert t.gauges == {}
        assert t.histograms == {}
        assert t.events == []

    def test_disabled_span_is_shared_null_object(self):
        t = Telemetry()
        assert t.span("a") is NULL_SPAN
        assert t.span("b", k=1) is NULL_SPAN
        assert NULL_SPAN.set(x=2) is NULL_SPAN

    def test_reset_clears_everything(self):
        t = Telemetry()
        t.enable()
        with t.span("s"):
            t.count("c")
        emit("round.end")
        assert t.events
        t.reset()
        assert t.spans == [] and t.counters == {} and t.events == []
        assert t.enabled  # reset preserves the flag
        with t.span("again"):
            pass
        assert len(t.spans) == 1
        t.disable()
