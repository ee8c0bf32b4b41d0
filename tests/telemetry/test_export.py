"""Exporter round-trips: Chrome trace, stats JSON, tree summary."""

import json

import pytest

from repro.telemetry import (
    Telemetry,
    chrome_trace,
    counters_summary,
    stats_dict,
    tree_summary,
    write_chrome_trace,
    write_stats,
)


@pytest.fixture
def populated():
    t = Telemetry()
    t.enable()
    with t.span("pa.run", miner="edgar"):
        with t.span("pa.round", round=0):
            with t.span("pa.collect"):
                t.count("mining.lattice_nodes", 10)
        with t.span("pa.round", round=1):
            t.count("mining.lattice_nodes", 7)
    t.observe("mis.component_size", 4)
    t.gauge("depth", 2)
    t.take("extraction", {"method": "call", "benefit": 5})
    yield t
    t.disable()


class TestChromeTrace:
    def test_round_trip_through_json(self, populated, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(populated, str(path))
        events = json.loads(path.read_text())
        assert isinstance(events, list)
        complete = [e for e in events if e["ph"] == "X"]
        assert len(complete) == len(populated.spans) == 4
        for event in complete:
            assert {"name", "ts", "dur", "pid", "tid"} <= set(event)
            assert event["ts"] >= 0 and event["dur"] >= 0

    def test_nesting_reflected_in_timestamps(self, populated):
        events = {
            (e["name"], e.get("args", {}).get("round")): e
            for e in chrome_trace(populated)
            if e["ph"] == "X"
        }
        run = events[("pa.run", None)]
        round0 = events[("pa.round", 0)]
        round1 = events[("pa.round", 1)]
        assert run["ts"] <= round0["ts"]
        assert round0["ts"] + round0["dur"] <= round1["ts"] + 1
        assert round1["ts"] + round1["dur"] <= run["ts"] + run["dur"] + 1

    def test_metadata_names_the_process(self, populated):
        events = chrome_trace(populated, process_name="bench")
        meta = [e for e in events if e["ph"] == "M"]
        assert meta and meta[0]["args"]["name"] == "bench"

    def test_metadata_names_every_thread(self, populated):
        import threading

        def worker():
            with populated.span("background"):
                pass

        thread = threading.Thread(target=worker)
        thread.start()
        thread.join()
        events = chrome_trace(populated)
        thread_meta = [
            e for e in events
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        # one label per distinct span track, covering every tid
        assert {e["tid"] for e in thread_meta} == {
            e["tid"] for e in events if e["ph"] == "X"
        }
        names = [e["args"]["name"] for e in thread_meta]
        assert names[0] == "main"
        assert any(name.startswith("worker-") for name in names[1:])

    def test_non_json_args_stringified(self):
        t = Telemetry()
        t.enable()
        with t.span("s", kinds=frozenset({"d"})):
            pass
        json.dumps(chrome_trace(t))  # must not raise


class TestStatsDump:
    def test_schema_and_sections(self, populated, tmp_path):
        path = tmp_path / "stats.json"
        write_stats(populated, str(path))
        stats = json.loads(path.read_text())
        assert stats["schema"] == "repro.telemetry.stats/3"
        assert stats["counters"]["mining.lattice_nodes"] == 17
        assert stats["gauges"]["depth"] == 2
        assert stats["histograms"]["mis.component_size"]["count"] == 1
        assert stats["histograms"]["mis.component_size"]["p50"] == 4
        assert stats["histograms"]["mis.component_size"]["p99"] == 4
        assert stats["events"] == [
            {"name": "extraction", "method": "call", "benefit": 5}
        ]

    def test_span_aggregates(self, populated):
        spans = stats_dict(populated)["spans"]
        assert spans["pa.round"]["count"] == 2
        assert spans["pa.run"]["count"] == 1
        assert spans["pa.round"]["total_seconds"] >= (
            spans["pa.round"]["min_seconds"] * 2
        )
        assert spans["pa.round"]["max_seconds"] <= (
            spans["pa.run"]["total_seconds"] + 1e-6
        )


class TestTreeSummary:
    def test_tree_structure_and_counts(self, populated):
        text = tree_summary(populated)
        lines = text.splitlines()
        run_line = next(l for l in lines if l.lstrip().startswith("pa.run"))
        round_line = next(
            l for l in lines if l.lstrip().startswith("pa.round")
        )
        collect_line = next(
            l for l in lines if l.lstrip().startswith("pa.collect")
        )
        # indentation encodes the hierarchy
        assert run_line.index("pa.run") < round_line.index("pa.round")
        assert round_line.index("pa.round") < collect_line.index(
            "pa.collect"
        )
        assert round_line.split()[1] == "2"  # aggregated count

    def test_empty_registry(self):
        t = Telemetry()
        assert "(no spans recorded)" in tree_summary(t)
        assert "(no counters recorded)" in counters_summary(t)

    def test_counters_summary_lists_values(self, populated):
        text = counters_summary(populated)
        assert "mining.lattice_nodes" in text and "17" in text
