"""Telemetry x pipeline integration + the disabled-is-inert guard."""

import pytest

from repro import telemetry
from repro.pa.driver import (
    PAConfig,
    apply_candidate,
    best_candidate,
    run_pa,
)

from tests.conftest import SHARED_FRAGMENT_PROGRAM, module_from_source


@pytest.fixture
def global_registry():
    """The process-global registry, reset and restored around the test."""
    registry = telemetry.get()
    registry.reset()
    yield registry
    registry.disable()
    registry.reset()


def _run(config=None):
    module = module_from_source(SHARED_FRAGMENT_PROGRAM)
    result = run_pa(module, config or PAConfig())
    return module, result


class TestDisabledGuard:
    def test_disabled_run_records_nothing(self, global_registry):
        assert not global_registry.enabled
        _run()
        assert global_registry.spans == []
        assert global_registry.counters == {}
        assert global_registry.events == []

    def test_results_identical_with_and_without_telemetry(
        self, global_registry
    ):
        baseline_module, baseline = _run()
        global_registry.enable()
        traced_module, traced = _run()
        assert traced_module.render() == baseline_module.render()
        assert traced.saved == baseline.saved
        assert traced.rounds == baseline.rounds
        assert traced.records == baseline.records
        assert traced.lattice_nodes == baseline.lattice_nodes


class TestEnabledPipeline:
    def test_run_pa_populates_registry(self, global_registry):
        global_registry.enable()
        __, result = _run()
        assert result.saved > 0
        counters = global_registry.counters
        assert counters["pa.runs"].value == 1
        assert counters["pa.rounds"].value == result.rounds
        assert (
            counters["mining.lattice_nodes"].value == result.lattice_nodes
        )
        assert counters["pa.instructions.saved"].value == result.saved
        assert counters["mining.embeddings_enumerated"].value > 0
        assert "mis.exact_components" in counters
        assert "mis.greedy_components" in counters
        span_names = {record.name for record in global_registry.spans}
        assert {"pa.run", "pa.round", "pa.collect", "mining.mine",
                "dfg.build"} <= span_names
        extraction_events = [
            e for e in global_registry.events if e["name"] == "extraction"
        ]
        assert len(extraction_events) == len(result.records)
        round_events = [
            e for e in global_registry.events if e["name"] == "round.end"
        ]
        # one round end per round, the final one that applied nothing too
        assert [e["round"] for e in round_events] == list(
            range(result.rounds + 1)
        )
        assert round_events[-1]["applied"] == 0
        # a round's mining time is its pa.collect span
        collects = [r for r in global_registry.spans
                    if r.name == "pa.collect"]
        assert len(collects) == len(round_events)

    def test_round_spans_nest_under_run(self, global_registry):
        global_registry.enable()
        _run()
        by_ident = {r.ident: r for r in global_registry.spans}
        run_spans = [
            r for r in global_registry.spans if r.name == "pa.run"
        ]
        assert len(run_spans) == 1
        for record in global_registry.spans:
            if record.name == "pa.round":
                assert by_ident[record.parent].name == "pa.run"


class TestVerifiedRunTelemetry:
    def test_verify_cost_shows_up_in_registry(self, global_registry):
        global_registry.enable()
        __, result = _run(PAConfig(verify=True))
        assert result.saved > 0
        counters = global_registry.counters
        assert counters["verify.rounds"].value == result.rounds
        assert counters["verify.lint.runs"].value >= result.rounds
        assert counters["verify.equivalence.checks"].value > 0
        assert counters["verify.solver.runs"].value > 0
        assert counters["verify.solver.iterations"].value > 0
        span_names = {record.name for record in global_registry.spans}
        assert {"pa.verify", "verify.lint", "verify.pass"} <= span_names

    def test_verify_spans_nest_under_run(self, global_registry):
        global_registry.enable()
        _run(PAConfig(verify=True))
        by_ident = {r.ident: r for r in global_registry.spans}
        verify_spans = [
            r for r in global_registry.spans if r.name == "pa.verify"
        ]
        assert verify_spans
        for record in verify_spans:
            assert by_ident[record.parent].name == "pa.round"


class TestApplyCandidateRound:
    def test_direct_call_defaults_to_round_zero(self):
        module = module_from_source(SHARED_FRAGMENT_PROGRAM)
        config = PAConfig()
        candidate = best_candidate(module, config)
        assert candidate is not None
        record = apply_candidate(module, config, candidate)
        assert record.round == 0

    def test_explicit_round_is_stamped(self):
        module = module_from_source(SHARED_FRAGMENT_PROGRAM)
        config = PAConfig()
        candidate = best_candidate(module, config)
        record = apply_candidate(module, config, candidate, round=4)
        assert record.round == 4
