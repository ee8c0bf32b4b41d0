"""The mining engine: one candidate funnel over shards of DFGs.

Every round of the abstraction loop mines its block-DFG database
through this package, for every worker count.  Mining is *sharded*,
*incremental* and *cached* — an extraction only rewrites a handful of
blocks, so most blocks recur unchanged in the next round — and
``--workers N >= 2`` makes it *parallel*; ``--workers`` only decides
where shards run (0 and 1 in-process), so the output is bit-identical
for any N and any cache state:

:mod:`repro.scale.cluster`
    Pre-clustering: blocks partition into shards (connected components
    over shared labelled-edge signatures) that provably cannot share a
    frequent fragment, so each shard's lattice search is independent.
:mod:`repro.scale.shard`
    The mining funnel (mine -> legality -> MIS -> order -> score) over
    one shard, runnable in-process or in a worker process, the single
    miner factory, plus the serialization that moves shard results
    across process and cache boundaries.
:mod:`repro.scale.pool`
    One round: partition, cache lookup, mining, deterministic merge.
    A worker fleet expands shard lattices concurrently with
    governor-aware teardown (SIGINT/deadline propagate; completed
    shards are salvaged as best-so-far).
:mod:`repro.scale.supervise`
    The fault-tolerant shard executor under the scheduler: tracked
    worker processes with sentinel watching (a SIGKILL'd/OOM-killed
    worker is detected in one poll tick and its shard redelivered),
    bounded retry with deterministic governor-aware backoff, a
    per-shard soft timeout, and a serial-fallback-then-quarantine
    policy for shards that keep failing.
:mod:`repro.scale.cache`
    The content-addressed fragment cache: shard results keyed by a
    canonical content digest, held in memory for the run.  After an
    extraction only the shards holding rewritten blocks miss; every
    other shard's lattice is reused verbatim, and the round's hits and
    misses are the measured reuse.
"""

from repro.scale.cache import FragmentCache
from repro.scale.cluster import Shard, cluster_dfgs, edge_signatures
from repro.scale.pool import ScaleStats, run_sharded_round
from repro.scale.shard import (
    SHARD_SCHEMA,
    ShardPayload,
    ShardResult,
    build_payload,
    mine_shard,
    revive_candidates,
)
from repro.scale.supervise import (
    DEFAULT_SHARD_RETRIES,
    SuperviseOutcome,
    mine_serial,
    supervise_mine,
)

__all__ = [
    "DEFAULT_SHARD_RETRIES",
    "FragmentCache",
    "SHARD_SCHEMA",
    "ScaleStats",
    "Shard",
    "ShardPayload",
    "ShardResult",
    "SuperviseOutcome",
    "build_payload",
    "cluster_dfgs",
    "edge_signatures",
    "mine_serial",
    "mine_shard",
    "revive_candidates",
    "run_sharded_round",
    "supervise_mine",
]
