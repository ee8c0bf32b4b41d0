"""Shard payloads: content digests change exactly when a fact that can
change the shard's mining outcome changes, and a shard result's local
candidates revive onto the round's DFG database."""

import dataclasses

from repro.dfg.builder import build_dfgs
from repro.pa.driver import PAConfig
from repro.pa.legality import sp_fragile_functions
from repro.pa.liveness import lr_live_out_blocks
from repro.scale.cluster import cluster_dfgs
from repro.scale.shard import (
    build_payload,
    mine_shard,
    revive_candidates,
)
from repro.workloads import compile_workload


def _payloads(name="crc", config=None):
    module = compile_workload(name)
    config = config or PAConfig()
    dfgs = build_dfgs(module, min_nodes=0, mined_kinds=config.mined_kinds)
    lr_live = lr_live_out_blocks(module)
    fragile = sp_fragile_functions(module)
    shards = cluster_dfgs(dfgs)
    payloads = [
        build_payload(shard, dfgs, lr_live, fragile, config)
        for shard in shards
    ]
    return module, dfgs, shards, payloads


def test_digest_is_stable():
    _, _, _, payloads = _payloads()
    again = _payloads()[3]
    assert [p.digest() for p in payloads] == [p.digest() for p in again]


def test_digest_changes_with_instructions():
    _, _, _, payloads = _payloads()
    payload = max(payloads, key=lambda p: sum(map(len, p.block_insns)))
    before = payload.digest()
    mutated = dataclasses.replace(
        payload, block_insns=[list(b) for b in payload.block_insns[:-1]]
    )
    assert mutated.digest() != before


def test_digest_changes_with_lr_and_fragile_facts():
    _, _, _, payloads = _payloads()
    payload = payloads[0]
    flipped = dataclasses.replace(
        payload,
        lr_live=tuple(not flag for flag in payload.lr_live),
    )
    assert flipped.digest() != payload.digest()
    refragiled = dataclasses.replace(
        payload, fragile=payload.fragile + ("some_callee",)
    )
    assert refragiled.digest() != payload.digest()


def test_digest_changes_with_mining_config():
    _, _, _, payloads = _payloads(config=PAConfig(max_nodes=8))
    deeper = _payloads(config=PAConfig(max_nodes=6))[3]
    assert payloads[0].digest() != deeper[0].digest()


def test_digest_ignores_shard_position():
    # Position is not content: after crossjumping renumbers blocks, an
    # untouched cluster keeps its digest (the incremental-invalidation
    # rule depends on this).
    _, _, _, payloads = _payloads()
    payload = payloads[0]
    moved = dataclasses.replace(payload, shard_index=payload.shard_index + 7)
    assert moved.digest() == payload.digest()


def test_mine_and_revive_round_trip():
    module, dfgs, shards, payloads = _payloads("crc")
    mined = False
    for shard, payload in zip(shards, payloads):
        result = mine_shard(payload,
                            [dfgs[g] for g in shard.graph_ids])
        revived = revive_candidates(dfgs, shard.graph_ids,
                                    result.candidates)
        assert len(revived) == len(result.candidates)
        for local, candidate in zip(result.candidates, revived):
            mined = True
            assert candidate.insns, "revival must re-derive instructions"
            assert candidate.origins, "revival must re-derive origins"
            assert [e.nodes for e in candidate.embeddings] == [
                e.nodes for e in local.embeddings]
            for embedding, before in zip(candidate.embeddings,
                                         local.embeddings):
                assert embedding.graph == shard.graph_ids[before.graph]
    assert mined, "crc must produce at least one shard candidate"
