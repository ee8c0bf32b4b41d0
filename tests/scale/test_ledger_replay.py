"""Every round's decision records cover every shard, cached or mined.

The fragment cache keeps each shard's live result together with the
``candidate``, ``legality`` and ``mis`` records its mine emitted, and a
cache hit emits them again at the shard's place in shard order.  So a
run writes, round by round, the same decision records as the same run
with a cache that never hits: same order and same fields, ``round``
and ``mine_pass`` included.  The records of work done (``mine.pass``)
still come from mined shards only.

A round's ``mine.skips`` census sums the tallies of every shard, so
its per-verdict counts equal the verdicts of the round's ``candidate``
records.
"""

from collections import Counter

import pytest

from repro.pa.driver import PAConfig, run_pa
from repro.report import ledger
from repro.scale.cache import FragmentCache
from tests.pa.test_flow_subsumption import _compile

DECISION_KINDS = ("candidate", "legality", "mis")
#: the funnel verdicts a ``candidate`` record carries
RECORDED_VERDICTS = ("lr_infeasible", "order_inconsistent",
                     "unprofitable", "scored")


class NeverHit(FragmentCache):
    """A cache that stores nothing: every shard is mined every round."""

    def put(self, key, result):
        pass


def ledgered_run(program, config, monkeypatch, cache_class=None):
    """``(module, result, records)`` of one run with the ledger on and
    its caps lifted; *cache_class* replaces the run's fragment cache."""
    registry = ledger.get()
    registry.reset()
    monkeypatch.setattr(registry, "caps", {})
    registry.enable()
    try:
        with monkeypatch.context() as patch:
            if cache_class is not None:
                patch.setattr("repro.scale.cache.FragmentCache",
                              cache_class)
            module = _compile(program)
            result = run_pa(module, config)
        records = list(registry.records)
        assert not registry.dropped
    finally:
        registry.disable()
        registry.reset()
    return module, result, records


def _by_round(records, kinds):
    rounds = {}
    for record in records:
        if record["type"] in kinds:
            rounds.setdefault(record["round"], []).append(record)
    return rounds


def check_replay(program, config, monkeypatch):
    """The run's decision records, round by round, against a run whose
    cache never hits; then its ``mine.skips`` against its records."""
    module, result, records = ledgered_run(program, config, monkeypatch)
    ref_module, ref_result, ref_records = ledgered_run(
        program, config, monkeypatch, NeverHit)
    assert module.render() == ref_module.render()
    assert result.saved == ref_result.saved > 0
    # the gate is not vacuous: later rounds reuse shards, the
    # reference reuses none
    assert result.cache_hits > 0
    assert ref_result.cache_hits == 0
    replayed = _by_round(records, DECISION_KINDS)
    reference = _by_round(ref_records, DECISION_KINDS)
    assert sorted(replayed) == sorted(reference)
    for round_index in sorted(reference):
        assert replayed[round_index] == reference[round_index], (
            f"{program}: round {round_index} decision records differ")
    # work done is not replayed: one full pass per mined shard
    for scale_round in (r for r in records if r["type"] == "scale.round"):
        passes = [p for p in records if p["type"] == "mine.pass"
                  and p["round"] == scale_round["round"]
                  and p["mine_pass"] == "full"]
        assert len(passes) == scale_round["mined"]
    skips = [r for r in records if r["type"] == "mine.skips"]
    assert skips
    candidates = _by_round(records, ("candidate",))
    for skip in skips:
        verdicts = Counter(c["verdict"]
                           for c in candidates.get(skip["round"], ()))
        assert {v: skip[v] for v in RECORDED_VERDICTS} == {
            v: verdicts[v] for v in RECORDED_VERDICTS
        }, f"round {skip['round']}"


@pytest.mark.parametrize("program, max_nodes", [
    ("crc", None),
    ("sha", 5),
    ("dijkstra", None),
    ("genprog-1-300", None),
])
def test_cache_hits_replay_the_decision_records(program, max_nodes,
                                                monkeypatch):
    config = PAConfig(time_budget=None,
                      **({"max_nodes": max_nodes} if max_nodes else {}))
    check_replay(program, config, monkeypatch)


@pytest.mark.slow
def test_cache_hits_replay_the_decision_records_on_bitcnts(monkeypatch):
    check_replay("bitcnts", PAConfig(time_budget=None), monkeypatch)

