"""The run loop against a from-scratch reference of the shard engine.

Every round partitions the DFG database into the independent clusters
of :func:`~repro.scale.cluster.cluster_dfgs` and mines each one with
its own benefit floor.  The engine reuses a
cluster's result from the in-memory fragment cache when none of its
blocks changed.  The reference below mines every cluster from scratch
in every round, with a fresh miner and a floor of its own, and merges
the clusters in order before one stable best-first sort (ledger and
telemetry emission left out).  A run must match it round by round:
the same candidates in the same order once the reference's exact
repeats are dropped (the engine decides each occurrence list once per
shard), the same extraction records and the same module text.  The
reference applies its candidates with the repeats kept.  Its mined
plus cache-served lattice nodes must equal the reference's mined ones,
since a cache hit stands for exactly the mine it skips.

With ``flow_pass=True`` the reference also runs the engine's former
second pass over the data-flow projection of each cluster's DFGs;
``tests/pa/test_flow_subsumption.py`` compares against it.
"""

from typing import List, Optional, Sequence

import pytest

from repro.dfg.builder import build_dfgs
from repro.dfg.graph import FLOW_KINDS
from repro.mining.edgar import non_overlapping_embeddings
from repro.mining.embeddings import Embedding
from repro.pa.driver import PAConfig, apply_batch, run_pa
from repro.pa.extract import call_site_feasible, order_consistent_subset
from repro.pa.fragments import Candidate, best_possible_benefit, score
from repro.pa.legality import (
    ExtractionMethod,
    LatticeLegality,
    legal_embeddings,
    sp_fragile_functions,
)
from repro.pa.liveness import lr_live_out_blocks
from repro.scale import pool
from repro.scale.cluster import cluster_dfgs
from repro.scale.shard import _make_miner
from repro.verify.cfg import build_module_cfg
from repro.verify.dataflow import AnalysisMemo
from repro.workloads import compile_workload


def reference_cluster(config: PAConfig, dfgs, graph_ids: Sequence[int],
                      lr_live, fragile, flow=None, blocklist=()):
    """The funnel over one cluster, from scratch: ``(candidates,
    lattice nodes)``.  *dfgs* (and *flow*, the data-flow projection)
    are the whole round's; candidates come back in global graph ids.
    A candidate whose fingerprint is in *blocklist* is skipped before
    it can raise the floor."""
    graphs = [dfgs[g] for g in graph_ids]
    miner = _make_miner(config)
    best: List[Optional[Candidate]] = [None]
    collected: List[Candidate] = []

    def floor() -> int:
        return best[0].benefit if best[0] is not None else 0

    def prune_subtree(size_cap: int, occurrence_bound: int) -> bool:
        return best_possible_benefit(size_cap, occurrence_bound) <= floor()

    def consider(size, occurrence_bound, embeddings, build) -> None:
        # the reference derives its floor bound from the fragment itself
        frag = build()
        per_graph = {}
        for emb in frag.embeddings:
            per_graph[emb.graph] = per_graph.get(emb.graph, 0) + 1
        occ_bound = sum(
            min(count, graphs[gid].num_nodes // max(1, frag.num_nodes))
            for gid, count in per_graph.items()
        )
        if best_possible_benefit(frag.num_nodes, occ_bound) <= floor():
            return
        if len(frag.embeddings) > 1000:
            frag.embeddings = frag.embeddings[:1000]
        method, legal = legal_embeddings(graphs, frag, fragile)
        if method is None or len(legal) < 2:
            return
        if method is ExtractionMethod.CALL:
            legal = [
                e for e in legal
                if graphs[e.graph].origin not in lr_live
                and call_site_feasible(graphs[e.graph], e.nodes)
            ]
            if len(legal) < 2:
                return
        disjoint = non_overlapping_embeddings(
            legal, exact_limit=config.mis_exact_limit
        )
        kept, union = order_consistent_subset(graphs, disjoint)
        if len(kept) < 2:
            return
        witness = kept[0]
        insns = [graphs[witness.graph].insns[n] for n in witness.nodes]
        origins = tuple(sorted({graphs[e.graph].origin for e in kept}))
        chosen = [Embedding(graph_ids[e.graph], e.nodes) for e in kept]
        candidate = score(frag, method, insns, chosen, union, origins)
        if candidate is None:
            return
        if candidate.fingerprint() in blocklist:
            return
        collected.append(candidate)
        if best[0] is None or candidate.sort_key() < best[0].sort_key():
            best[0] = candidate

    miner.prune_subtree = prune_subtree
    if config.pa_pruning:
        miner.prune_illegal = LatticeLegality(fragile)
    miner.on_fragment = consider
    if miner.max_nodes > 4:
        saved_max = miner.max_nodes
        miner.max_nodes = 3
        miner.mine(graphs)
        miner.max_nodes = saved_max
    miner.mine(graphs)
    if flow is not None:
        # the same blocks with only the data-flow edges mined; legality
        # still checks every dependence
        miner.mine([flow[g] for g in graph_ids])
    collected.sort(key=lambda c: c.sort_key())
    return collected, miner.visited_nodes


def reference_collect(module, config: PAConfig, memo: AnalysisMemo,
                      flow_pass: bool = False, blocklist=()):
    """One round: every cluster mined from scratch, merged in cluster
    order, then one stable best-first sort.  ``(candidates, lattice
    nodes)``."""
    dfgs = build_dfgs(module, min_nodes=0, mined_kinds=config.mined_kinds)
    if not dfgs:
        return [], 0
    cfg = build_module_cfg(module)
    lr_live = lr_live_out_blocks(module, memo, cfg)
    fragile = sp_fragile_functions(module, memo, cfg)
    flow = (build_dfgs(module, min_nodes=0, mined_kinds=FLOW_KINDS)
            if flow_pass else None)
    merged: List[Candidate] = []
    lattice_nodes = 0
    for shard in cluster_dfgs(dfgs):
        candidates, nodes = reference_cluster(
            config, dfgs, shard.graph_ids, lr_live, fragile, flow,
            frozenset(blocklist)
        )
        merged.extend(candidates)
        lattice_nodes += nodes
    merged.sort(key=lambda c: c.sort_key())
    return merged, lattice_nodes


def reference_run(module, config: PAConfig, flow_pass: bool = False):
    """The round loop without a cache: ``(records, lattice nodes,
    per-round distinct candidates)``."""
    memo = AnalysisMemo()
    records = []
    lattice_nodes = 0
    rounds = []
    for round_index in range(config.max_rounds):
        candidates, nodes = reference_collect(module, config, memo,
                                              flow_pass)
        lattice_nodes += nodes
        rounds.append(_summary(distinct(candidates)))
        if not candidates:
            break
        applied, __, ___ = apply_batch(module, config, candidates)
        if not applied:
            break
        for record in applied:
            record.round = round_index
        records.extend(applied)
    return records, lattice_nodes, rounds


def distinct(candidates):
    """*candidates* without their later exact repeats: the same method
    and embeddings as an earlier candidate.  Lattice nodes over the
    same occurrence list score the same candidate, which the engine
    collects once per shard; the reference scores and keeps each one."""
    seen = set()
    kept = []
    for candidate in candidates:
        key = (candidate.method, tuple(candidate.embeddings))
        if key not in seen:
            seen.add(key)
            kept.append(candidate)
    return kept


def _summary(candidates):
    return [(c.fingerprint(), c.benefit, c.embeddings) for c in candidates]


@pytest.mark.parametrize("workload, miner, max_nodes", [
    ("crc", "edgar", 8),
    ("search", "edgar", 8),
    ("sha", "edgar", 5),
    ("crc", "dgspan", 8),
])
def test_workers_zero_matches_the_serial_engine(workload, miner, max_nodes,
                                                monkeypatch):
    config = PAConfig(miner=miner, max_nodes=max_nodes)
    rounds = []
    real_round = pool.run_sharded_round

    def recording(*args, **kwargs):
        candidates, stats = real_round(*args, **kwargs)
        rounds.append(_summary(candidates))
        return candidates, stats

    monkeypatch.setattr(pool, "run_sharded_round", recording)
    module = compile_workload(workload)
    result = run_pa(module, config)

    reference = compile_workload(workload)
    records, lattice_nodes, ref_rounds = reference_run(reference, config)
    assert result.saved > 0
    assert module.render() == reference.render()
    assert result.records == records
    assert result.lattice_nodes_reused > 0
    assert (result.lattice_nodes + result.lattice_nodes_reused
            == lattice_nodes)
    assert rounds == ref_rounds
