"""Unit behavior of the decision ledger itself, as a sink of the one
event model."""

import pytest

from repro.report.ledger import DEFAULT_CAPS, Ledger, read_jsonl
from repro.telemetry.events import context, emit


@pytest.fixture
def live():
    ledger = Ledger()
    ledger.enable()
    yield ledger
    ledger.disable()


class TestLifecycle:
    def test_disabled_by_default_and_inert(self):
        ledger = Ledger()
        assert not ledger.enabled
        emit("candidate", benefit=3)
        assert ledger.records == []
        with context(round=0):
            emit("candidate", benefit=3)
        assert ledger.records == []

    def test_reset_preserves_enabled_flag(self, live):
        emit("candidate", benefit=1)
        live.reset()
        assert live.enabled
        assert live.records == []
        assert live.dropped == {}

    def test_emit_merges_type_and_fields(self, live):
        emit("candidate", benefit=3, method="call")
        assert live.records == [
            {"type": "candidate", "benefit": 3, "method": "call"}
        ]


class TestContext:
    def test_context_merged_into_nested_records(self, live):
        with context(round=2):
            emit("round.begin", instructions=10)
            with context(mine_pass="full"):
                emit("mine.pass", seeds=4)
            emit("round.end", instructions=8)
        emit("run.end", saved=2)
        assert live.records[0] == {
            "type": "round.begin", "round": 2, "instructions": 10,
        }
        assert live.records[1] == {
            "type": "mine.pass", "round": 2, "mine_pass": "full",
            "seeds": 4,
        }
        # inner context restored ...
        assert "mine_pass" not in live.records[2]
        # ... and the outer one too
        assert "round" not in live.records[3]

    def test_explicit_field_beats_context(self, live):
        with context(round=1):
            emit("candidate", round=7)
        assert live.records[0]["round"] == 7

    def test_nested_context_restores_shadowed_value(self, live):
        with context(round=0):
            with context(round=1):
                emit("rewrite")
            emit("checkpoint")
        assert [r.get("round") for r in live.records] == [1, 0]

    def test_records_of_and_rounds(self, live):
        with context(round=0):
            emit("candidate", benefit=1)
        with context(round=1):
            emit("candidate", benefit=2)
        emit("run.end", saved=3)
        assert [r["benefit"] for r in live.records_of("candidate")] == [1, 2]
        assert live.rounds() == [0, 1]


class TestCaps:
    def test_capped_type_drops_and_counts(self):
        ledger = Ledger()
        ledger.caps["mis"] = 3
        ledger.enable()
        try:
            for index in range(10):
                emit("mis", index=index)
        finally:
            ledger.disable()
        assert len(ledger.records_of("mis")) == 3
        assert ledger.dropped == {"mis": 7}
        # surviving records are the first N, in order
        assert [r["index"] for r in ledger.records_of("mis")] == [0, 1, 2]

    def test_uncapped_types_never_drop(self, live):
        for index in range(DEFAULT_CAPS["legality"] + 10):
            emit("extraction", index=index)
        assert len(live.records_of("extraction")) == (
            DEFAULT_CAPS["legality"] + 10
        )
        assert live.dropped == {}

    def test_default_caps_cover_high_frequency_types(self):
        assert {"legality", "mis", "candidate"} <= set(DEFAULT_CAPS)


class TestPersistence:
    def test_jsonl_round_trip(self, live, tmp_path):
        with context(round=0):
            emit("candidate", benefit=3, labels=["a", "b"])
        emit("run.end", saved=3, dropped={})
        path = tmp_path / "ledger.jsonl"
        live.write_jsonl(str(path))
        assert read_jsonl(str(path)) == live.records

    def test_non_json_values_stringified(self, live, tmp_path):
        emit("candidate", kinds=frozenset({"d"}))
        path = tmp_path / "ledger.jsonl"
        live.write_jsonl(str(path))  # must not raise
        assert read_jsonl(str(path))[0]["type"] == "candidate"
