"""The mining engine: one candidate funnel over shards of DFGs.

Every round of the abstraction loop mines its block-DFG database
through this package.  Mining is *sharded*, *incremental* and *cached*
— an extraction only rewrites a handful of blocks, so most blocks
recur unchanged in the next round — and the output is bit-identical
for any cache state:

:mod:`repro.scale.cluster`
    Pre-clustering: blocks partition into shards (connected components
    over shared labelled-edge signatures) that provably cannot share a
    frequent fragment, so each shard's lattice search is independent.
:mod:`repro.scale.shard`
    The mining funnel (mine -> legality -> MIS -> order -> score) over
    one shard and the single miner factory.  A shard's result keeps
    its shard-local candidates and the decision records its mine
    emitted.
:mod:`repro.scale.pool`
    One round: partition, cache lookup, then the shards in order — a
    hit replays its decision records, a miss is mined — and a
    deterministic merge.  A governor stop between shards keeps the
    shards done so far as best-so-far.
:mod:`repro.scale.cache`
    The content-addressed fragment cache: live shard results keyed by
    a canonical content digest, held in memory for the run.  After an
    extraction only the shards holding rewritten blocks miss; every
    other shard's result is reused as is, and the round's hits and
    misses are the measured reuse.
"""

from repro.scale.cache import FragmentCache
from repro.scale.cluster import Shard, cluster_dfgs, edge_signatures
from repro.scale.pool import ScaleStats, run_sharded_round
from repro.scale.shard import (
    ShardPayload,
    ShardResult,
    build_payload,
    mine_shard,
    revive_candidates,
)

__all__ = [
    "FragmentCache",
    "ScaleStats",
    "Shard",
    "ShardPayload",
    "ShardResult",
    "build_payload",
    "cluster_dfgs",
    "edge_signatures",
    "mine_shard",
    "revive_candidates",
    "run_sharded_round",
]
