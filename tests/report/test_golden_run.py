"""Golden-file test: a deterministic two-round run's ledger records.

The golden program (see ``conftest.GOLDEN_PROGRAM``) is built so the
driver's two mechanisms win in a fixed order; the whole mining pipeline
is deterministic, so round numbers, candidate scores, mechanism tags
and funnel counts are pinned exactly.  If an intentional pipeline
change moves these numbers, re-measure and update them together with
the change that moved them.
"""

import pytest

from repro.binary.layout import layout
from repro.pa.driver import PAConfig, run_pa
from repro.report import ledger
from repro.report.explain import explain_round, explain_run
from repro.sim.machine import run_image

from tests.conftest import module_from_source, run_asm
from tests.report.conftest import GOLDEN_PROGRAM


@pytest.fixture(scope="module")
def golden():
    """One ledgered run of the golden program, shared by the module."""
    registry = ledger.get()
    registry.reset()
    registry.enable()
    try:
        module = module_from_source(GOLDEN_PROGRAM)
        result = run_pa(module, PAConfig(batch=False))
        records = list(registry.records)
    finally:
        registry.disable()
        registry.reset()
    return module, result, records


def _of(records, rtype):
    return [r for r in records if r["type"] == rtype]


class TestGoldenRun:
    def test_headline_numbers(self, golden):
        module, result, __ = golden
        assert result.instructions_before == 42
        assert result.instructions_after == 35
        assert result.saved == 7
        assert result.rounds == 2
        assert result.call_extractions == 1
        assert result.crossjump_extractions == 1

    def test_behaviour_preserved(self, golden):
        module, __, ___ = golden
        reference = run_asm(GOLDEN_PROGRAM)
        out = run_image(layout(module))
        assert (out.output, out.exit_code) == (
            reference.output, reference.exit_code
        )

    def test_extraction_records_match_golden_values(self, golden):
        __, ___, records = golden
        extractions = _of(records, "extraction")
        golden_rows = [
            (0, "crossjump", "tail_0", 5, 2, 4, 16),
            (1, "call", "pa_1", 6, 2, 3, 12),
        ]
        assert [
            (e["round"], e["method"], e["new_symbol"], e["size"],
             e["occurrences"], e["benefit"], e["bytes_saved"])
            for e in extractions
        ] == golden_rows
        for extraction in extractions:
            assert extraction["embedding_count"] == 2
            assert extraction["legal"] == 2
            assert extraction["mis_size"] == 2
            assert extraction["mis_mode"] == "trivial"
            assert extraction["order_kept"] == 2

    def test_extraction_records_carry_dot_artifacts(self, golden):
        __, ___, records = golden
        for extraction in _of(records, "extraction"):
            assert extraction["fragment_dot"].startswith("digraph")
            assert extraction["host_dot"].startswith("digraph")
            assert extraction["collision_dot"].startswith("graph")
            # the embedding is highlighted in its host block
            assert "fillcolor" in extraction["host_dot"]

    def test_round_records(self, golden):
        __, ___, records = golden
        begins = _of(records, "round.begin")
        ends = _of(records, "round.end")
        # two productive rounds plus the terminating empty round
        assert [r["round"] for r in begins] == [0, 1, 2]
        assert [(r["round"], r["instructions"], r["applied"], r["saved"])
                for r in ends] == [
            (0, 38, 1, 4),
            (1, 35, 1, 3),
            (2, 35, 0, 0),
        ]

    def test_run_records(self, golden):
        __, ___, records = golden
        (begin,) = _of(records, "run.begin")
        (end,) = _of(records, "run.end")
        assert begin["schema"] == ledger.LEDGER_SCHEMA
        assert begin["engine"] == "edgar"
        assert begin["instructions"] == 42
        assert begin["config"]["batch"] is False
        assert (end["rounds"], end["saved"], end["bytes_saved"]) == (
            2, 7, 28
        )
        assert end["call_extractions"] == 1
        assert end["crossjump_extractions"] == 1

    def test_mine_passes_recorded_per_round(self, golden):
        __, ___, records = golden
        passes = _of(records, "mine.pass")
        scale_rounds = _of(records, "scale.round")
        assert [r["round"] for r in scale_rounds] == [0, 1, 2]
        for scale_round in scale_rounds:
            # one shallow/full pair per shard mined (not served from
            # the cache) in the round
            labels = [
                p["mine_pass"] for p in passes
                if p["round"] == scale_round["round"]
            ]
            assert scale_round["mined"] > 0
            assert labels == ["shallow", "full"] * scale_round["mined"]
        assert all(p["engine"] == "edgar" for p in passes)

    def test_funnel_and_prune_records(self, golden):
        __, ___, records = golden
        skips = _of(records, "mine.skips")
        assert [s["round"] for s in skips] == [0, 1, 2]
        for skip in skips:
            total_rejected = (
                skip["floor"] + skip["illegal"] + skip["lr_infeasible"]
                + skip["order_inconsistent"] + skip["unprofitable"]
                + skip["scored"]
            )
            assert total_rejected == skip["considered"]
        # the final round mines the compacted module: nothing scores
        assert skips[-1]["scored"] == 0
        prunes = _of(records, "prune")
        assert [p["round"] for p in prunes] == [0, 1, 2]
        # the legality prune cuts branches before they reach the funnel
        # or the convexity filter: in round 2 it cuts every branch that
        # held a never-convex embedding
        assert [p["illegal"] for p in prunes] == [591, 551, 60]
        assert [p["never_convex"] for p in prunes] == [18, 18, 0]
        # the Fig. 9 cyclic prune needs a re-entering path through a node
        # with no mined edges; the full dependence graph has none here
        assert [p["cyclic"] for p in prunes] == [0, 0, 0]

    def test_candidate_records_include_the_winners(self, golden):
        __, ___, records = golden
        scored = [
            c for c in _of(records, "candidate")
            if c["verdict"] == "scored"
        ]
        assert any(
            c["method"] == "crossjump" and c["benefit"] == 4
            and c["round"] == 0
            for c in scored
        )
        assert any(
            c["method"] == "call" and c["benefit"] == 3
            and c["round"] == 1
            for c in scored
        )

    def test_rewrites_confirm_extractions(self, golden):
        __, ___, records = golden
        rewrites = _of(records, "rewrite")
        assert [(r["method"], r["symbol"]) for r in rewrites] == [
            ("crossjump", "tail_0"), ("call", "pa_1"),
        ]


class TestExplainGolden:
    def test_explain_round_one_narrates_the_call(self, golden):
        __, ___, records = golden
        text = explain_round(records, 1)
        assert "Round 1: 38 -> 35 instructions (saved 3)" in text
        assert "pa_1" in text and "[call]" in text
        assert "embeddings 2 -> legal 2 -> MIS size 2" in text
        assert "never-convex" in text and "cyclic-dependency" in text
        assert "lattice branches cut as never legally extractable" in text
        # the outlined body is printed
        assert "mul r4, r3, r1" in text

    def test_explain_round_zero_narrates_the_crossjump(self, golden):
        __, ___, records = golden
        text = explain_round(records, 0)
        assert "tail_0" in text and "[crossjump]" in text
        assert "benefit 4 instructions (16 bytes)" in text

    def test_explain_missing_round(self, golden):
        __, ___, records = golden
        text = explain_round(records, 9)
        assert "not present" in text
        assert "0, 1, 2" in text

    def test_explain_run_digest(self, golden):
        __, ___, records = golden
        digest = explain_run(records)
        assert "applied 1, saved 4 -> 38 instructions" in digest
        assert "applied 1, saved 3 -> 35 instructions" in digest
