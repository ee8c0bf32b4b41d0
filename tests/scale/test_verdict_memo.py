"""The shard funnel's per-occurrence-list verdicts against a funnel
without them.

A lattice node's candidate depends only on its occurrence list once the
floor lets it through, and the same node tuples show up as one lattice
node per edge subset.  :func:`~repro.scale.shard.mine_shard` therefore
decides each occurrence list once per shard and replays the decision's
tally and events for every later node with that list.  The reference
below is the funnel without the memo: it builds every reported
fragment, takes its floor bound from the fragment itself, and scores
and keeps every node.

Every shard a run mines is mined a second time by the reference, on the
same payload and DFGs.  The two must agree exactly: the same candidates
once the reference's later exact repeats are dropped (a repeat has the
method and embeddings of an earlier candidate of its shard), the same
tallies and lattice nodes, and, with a ledger sink on, the same
``candidate``, ``legality`` and ``mis`` records in the same order.
"""

import contextlib
from typing import Dict, List, Optional

import pytest

from repro.mining.edgar import non_overlapping_embeddings
from repro.pa.driver import PAConfig, run_pa
from repro.pa.extract import call_site_feasible, order_consistent_subset
from repro.pa.fragments import (
    Candidate,
    best_possible_benefit,
    call_benefit,
    call_overhead,
    crossjump_benefit,
    score,
)
from repro.pa.legality import (
    ExtractionMethod,
    LatticeLegality,
    legal_embeddings,
)
from repro.scale import pool
from repro.scale.shard import (
    PRUNE_KEYS,
    TALLY_KEYS,
    _make_miner,
)
from repro.telemetry import events
from repro.telemetry.events import emit
from repro.workloads import PROGRAMS, compile_workload
from tests.pa.test_serial_reference import distinct


class _Recorder(events.Sink):
    """Keeps the funnel's ledger kinds, uncapped."""

    kinds = frozenset({"candidate", "legality", "mis"})

    def __init__(self):
        self.records = []

    def take(self, kind, record):
        self.records.append((kind, record))


@contextlib.contextmanager
def _recorded(on):
    """A :class:`_Recorder` attached for the block when *on*."""
    recorder = _Recorder()
    if on:
        events.attach(recorder)
    try:
        yield recorder
    finally:
        events.detach(recorder)


def reference_mine_shard(payload, dfgs):
    """The funnel with no verdict memo: ``(candidates, tallies,
    lattice nodes)``, every scored node's candidate kept."""
    conf = payload.config
    fragile = frozenset(payload.fragile)
    blocklist = frozenset(payload.blocklist)
    miner = _make_miner(conf)
    best: List[Optional[Candidate]] = [None]
    collected: List[Candidate] = []
    tallies: Dict[str, int] = {key: 0 for key in TALLY_KEYS}
    ledger_on = events.wants("candidate")

    def floor() -> int:
        return best[0].benefit if best[0] is not None else 0

    def prune_subtree(size_cap, occurrence_bound):
        return best_possible_benefit(size_cap, occurrence_bound) <= floor()

    def consider(size, occurrence_bound, embeddings, build):
        frag = build()
        tallies["considered"] += 1
        per_graph: Dict[int, int] = {}
        for emb in frag.embeddings:
            per_graph[emb.graph] = per_graph.get(emb.graph, 0) + 1
        occ_bound = sum(
            min(count, dfgs[gid].num_nodes // max(1, frag.num_nodes))
            for gid, count in per_graph.items()
        )
        if best_possible_benefit(frag.num_nodes, occ_bound) <= floor():
            tallies["floor"] += 1
            return
        if len(frag.embeddings) > 1000:
            frag.embeddings = frag.embeddings[:1000]
        method, legal = legal_embeddings(dfgs, frag, fragile)
        if method is None or len(legal) < 2:
            tallies["illegal"] += 1
            return
        if ledger_on:
            funnel = {"labels": list(frag.node_labels),
                      "size": frag.num_nodes,
                      "method": method.value,
                      "embeddings": len(frag.embeddings),
                      "legal": len(legal)}
        if method is ExtractionMethod.CALL:
            legal = [
                e for e in legal
                if not payload.lr_live[e.graph]
                and call_site_feasible(dfgs[e.graph], e.nodes)
            ]
            if len(legal) < 2:
                tallies["lr_infeasible"] += 1
                if ledger_on:
                    emit("candidate", verdict="lr_infeasible", **funnel,
                         lr_feasible=len(legal))
                return
        mis_stats = {} if ledger_on else None
        disjoint = non_overlapping_embeddings(
            legal, exact_limit=conf.mis_exact_limit, stats=mis_stats
        )
        kept, union = order_consistent_subset(dfgs, disjoint)
        if ledger_on:
            funnel.update(
                mis_size=len(disjoint),
                collision_nodes=mis_stats.get("vertices"),
                collision_edges=mis_stats.get("edges"),
                mis_mode=mis_stats.get("mode"),
                order_kept=len(kept),
            )
        if len(kept) < 2:
            tallies["order_inconsistent"] += 1
            if ledger_on:
                emit("candidate", verdict="order_inconsistent", **funnel)
            return
        witness = kept[0]
        insns = [dfgs[witness.graph].insns[n] for n in witness.nodes]
        origins = tuple(sorted({dfgs[e.graph].origin for e in kept}))
        candidate = score(frag, method, insns, kept, union, origins)
        if candidate is None:
            tallies["unprofitable"] += 1
            if ledger_on:
                if method is ExtractionMethod.CALL:
                    benefit = call_benefit(
                        frag.num_nodes, len(kept), call_overhead(insns)
                    )
                else:
                    benefit = crossjump_benefit(frag.num_nodes, len(kept))
                emit("candidate", verdict="unprofitable", **funnel,
                     benefit=benefit)
            return
        if blocklist and candidate.fingerprint() in blocklist:
            tallies["blocklist"] += 1
            return
        tallies["scored"] += 1
        if ledger_on:
            candidate.provenance = {
                "embeddings": funnel["embeddings"],
                "legal": funnel["legal"],
                "mis_size": funnel["mis_size"],
                "collision_nodes": funnel["collision_nodes"],
                "collision_edges": funnel["collision_edges"],
                "mis_mode": funnel["mis_mode"],
                "order_kept": funnel["order_kept"],
                "collision_adjacency": mis_stats.get("adjacency"),
                "chosen_indices": mis_stats.get("chosen_indices"),
                "fragment_labels": funnel["labels"],
                "fragment_edges": sorted(tuple(e) for e in frag.edges),
            }
            emit("candidate", verdict="scored", **funnel,
                 benefit=candidate.benefit)
        collected.append(candidate)
        if best[0] is None or candidate.sort_key() < best[0].sort_key():
            best[0] = candidate

    miner.prune_subtree = prune_subtree
    if conf.pa_pruning:
        miner.prune_illegal = LatticeLegality(fragile)
    miner.on_fragment = consider
    if miner.max_nodes > 4:
        saved_max = miner.max_nodes
        miner.max_nodes = 3
        with events.context(mine_pass="shallow"):
            miner.mine(dfgs)
        miner.max_nodes = saved_max
    with events.context(mine_pass="full"):
        miner.mine(dfgs)
    collected.sort(key=lambda c: c.sort_key())
    for attribute in PRUNE_KEYS.values():
        tallies[attribute] = getattr(miner, attribute)
    return collected, tallies, miner.visited_nodes


def _fields(candidates):
    """What a shard result's candidates carry: everything revival and
    the ledger read, with shard-local graph ids."""
    return [(c.method, c.benefit, c.embeddings, c.union_edges,
             c.fragment.node_labels, c.fragment.edges, c.fragment.support,
             c.provenance) for c in candidates]


def _check(program, miner, max_nodes, ledger, monkeypatch):
    """Run PA on *program*; every mined shard must match the reference.
    Returns the number of shards compared and of repeats dropped."""
    config = PAConfig(miner=miner, time_budget=None,
                      **({"max_nodes": max_nodes} if max_nodes else {}))
    real = pool.mine_shard
    census = {"shards": 0, "repeats": 0}

    def checked(payload, dfgs):
        with _recorded(ledger) as recorded:
            result = real(payload, dfgs)
        with _recorded(ledger) as ref_recorded:
            candidates, tallies, lattice_nodes = reference_mine_shard(
                payload, dfgs
            )
        kept = distinct(candidates)
        assert _fields(result.candidates) == _fields(kept)
        assert result.tallies == tallies
        assert result.lattice_nodes == lattice_nodes
        if ledger:
            assert recorded.records == ref_recorded.records
        census["shards"] += 1
        census["repeats"] += len(candidates) - len(kept)
        return result

    monkeypatch.setattr(pool, "mine_shard", checked)
    result = run_pa(compile_workload(program), config)
    assert result.saved > 0
    assert census["shards"] > 0
    return census


#: (program, miner) runs too slow for tier-1 once mined twice
SLOW = {("bitcnts", "edgar"), ("rijndael", "edgar"), ("sha", "dgspan")}


def _cases():
    for program in sorted(PROGRAMS):
        for miner in ("edgar", "dgspan"):
            marks = [pytest.mark.slow] if (program, miner) in SLOW else []
            yield pytest.param(program, miner, None,
                               id=f"{program}-{miner}", marks=marks)
    for miner in ("edgar", "dgspan"):
        yield pytest.param("sha", miner, 5, id=f"sha-5-{miner}")


@pytest.mark.parametrize("program, miner, max_nodes", list(_cases()))
def test_memo_matches_reference(program, miner, max_nodes, monkeypatch):
    census = _check(program, miner, max_nodes, True, monkeypatch)
    # every run has repeats for the memo to drop
    assert census["repeats"] > 0


@pytest.mark.parametrize("program, miner", [
    ("crc", "dgspan"),
    ("search", "edgar"),
])
def test_memo_matches_reference_without_ledger(program, miner,
                                               monkeypatch):
    _check(program, miner, None, False, monkeypatch)
