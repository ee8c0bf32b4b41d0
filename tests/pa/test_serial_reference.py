"""``--workers 0`` against the serial engine it replaced.

Before the mining engine was unified, the driver ran its own copy of
the candidate funnel over the whole DFG database and warm-started each
round's benefit floor with the previous round's still-valid candidates
("carryover").  Now every worker count runs the shard funnel, and
``--workers 0`` is one shard that holds every DFG.

The reference below is that serial engine: its funnel and its round
loop, carryover included (ledger and telemetry emission left out).
A ``--workers 0`` run must match it round by round: the same
candidates in the same order, the same extraction records, the same
module text and the same lattice size.
"""

from typing import List, Optional

import pytest

from repro.dfg.builder import build_dfgs
from repro.dfg.graph import FLOW_KINDS
from repro.mining.edgar import non_overlapping_embeddings
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
from repro.scale.shard import _make_miner
from repro.verify.cfg import build_module_cfg
from repro.verify.dataflow import AnalysisMemo
from repro.workloads import compile_workload


def reference_collect(module, config: PAConfig, miner,
                      warm: List[Candidate],
                      memo: AnalysisMemo) -> List[Candidate]:
    """The serial funnel: one floor over the whole database, seeded by
    the *warm* candidates."""
    dfgs = build_dfgs(module, min_nodes=0, mined_kinds=config.mined_kinds)
    if not dfgs:
        return []
    cfg = build_module_cfg(module)
    lr_live = lr_live_out_blocks(module, memo, cfg)
    fragile = sp_fragile_functions(module, memo, cfg)
    best: List[Optional[Candidate]] = [None]
    collected: List[Candidate] = []
    for candidate in warm:
        collected.append(candidate)
        if best[0] is None or candidate.sort_key() < best[0].sort_key():
            best[0] = candidate

    def floor() -> int:
        return best[0].benefit if best[0] is not None else 0

    def prune_subtree(size_cap: int, occurrence_bound: int) -> bool:
        return best_possible_benefit(size_cap, occurrence_bound) <= floor()

    def consider(frag) -> None:
        per_graph = {}
        for emb in frag.embeddings:
            per_graph[emb.graph] = per_graph.get(emb.graph, 0) + 1
        occ_bound = sum(
            min(count, dfgs[gid].num_nodes // max(1, frag.num_nodes))
            for gid, count in per_graph.items()
        )
        if best_possible_benefit(frag.num_nodes, occ_bound) <= floor():
            return
        if len(frag.embeddings) > 1000:
            frag.embeddings = frag.embeddings[:1000]
        method, legal = legal_embeddings(dfgs, frag, fragile)
        if method is None or len(legal) < 2:
            return
        if method is ExtractionMethod.CALL:
            legal = [
                e for e in legal
                if dfgs[e.graph].origin not in lr_live
                and call_site_feasible(dfgs[e.graph], e.nodes)
            ]
            if len(legal) < 2:
                return
        disjoint = non_overlapping_embeddings(
            legal, exact_limit=config.mis_exact_limit
        )
        kept, union = order_consistent_subset(dfgs, disjoint)
        if len(kept) < 2:
            return
        witness = kept[0]
        insns = [dfgs[witness.graph].insns[n] for n in witness.nodes]
        origins = tuple(sorted({dfgs[e.graph].origin for e in kept}))
        candidate = score(frag, method, insns, kept, union, origins)
        if candidate is None:
            return
        collected.append(candidate)
        if best[0] is None or candidate.sort_key() < best[0].sort_key():
            best[0] = candidate

    miner.prune_subtree = prune_subtree
    if getattr(miner, "pa_pruning", False):
        miner.prune_illegal = LatticeLegality(fragile)
    miner.on_fragment = consider
    if miner.max_nodes > 4:
        saved_max = miner.max_nodes
        miner.max_nodes = 3
        miner.mine(dfgs)
        miner.max_nodes = saved_max
    miner.mine(dfgs)
    if config.flow_pass and FLOW_KINDS != config.mined_kinds:
        miner.mine(build_dfgs(module, min_nodes=0, mined_kinds=FLOW_KINDS))
    collected.sort(key=lambda c: c.sort_key())
    return collected


def reference_run(module, config: PAConfig):
    """The serial round loop with carryover: ``(records, lattice
    nodes, per-round candidates)``."""
    memo = AnalysisMemo()
    carryover: List[Candidate] = []
    records = []
    lattice_nodes = 0
    rounds = []
    for round_index in range(config.max_rounds):
        miner = _make_miner(config)
        candidates = reference_collect(module, config, miner, carryover,
                                       memo)
        lattice_nodes += miner.visited_nodes
        rounds.append(_summary(candidates))
        if not candidates:
            break
        applied, touched_blocks, touched_functions = apply_batch(
            module, config, candidates
        )
        if not applied:
            break
        for record in applied:
            record.round = round_index
        records.extend(applied)
        # survivors of an untouched block stay valid, unless a
        # cross-jump renumbered the blocks
        carryover = [] if touched_functions else [
            c for c in candidates
            if not any(o in touched_blocks for o in c.origins)
        ]
    return records, lattice_nodes, rounds


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
    assert result.lattice_nodes == lattice_nodes
    assert rounds == ref_rounds
