"""One mining round: partition, cache, mine the shards, merge.

:func:`run_sharded_round` is the mining step of every round: partition
the DFG database into shards (:func:`~repro.scale.cluster.cluster_dfgs`),
consult the fragment cache per shard, then walk the shards in order —
a hit replays its decision records, a miss is mined on the round's own
DFGs — and merge.

Determinism invariants (the bit-identity gate relies on these):

* **Shards are independent.**  Each shard is mined by the same pure
  function (:func:`~repro.scale.shard.mine_shard`) with a shard-local
  benefit floor — no cross-shard state — and the merge concatenates
  shard results in shard order before one stable sort by the
  candidate sort key.
* **Cache state never changes the result.**  A cache key is a complete
  content digest of the work unit (instructions, legality facts,
  mining config), so a hit returns exactly what mining would produce.
* **Instrumentation is observational.**  Shards emit their metrics
  and events straight into the attached sinks, in shard order, inside
  the ``scale.mine`` span; with a sink off nothing is recorded for it.
  A cache hit emits its shard's ``candidate``, ``legality`` and
  ``mis`` records again at the shard's place, so every round's records
  cover every shard, as if it had been mined.  The records of work
  done (``mine.pass``, ``shard.start``, ``heartbeat``, ``shard.done``)
  and the ``scale.shard.mine_seconds`` histogram come from mined
  shards only.  The round then emits its ``mine.skips`` and ``prune``
  census from the shard tallies and its per-shard ``scale.*`` records.

Governor: the active run governor is polled between shards.  On
SIGINT/SIGTERM/deadline the shards not yet mined are reported lost and
the round keeps every shard mined or served from the cache as its
best-so-far — the anytime semantics of the round loop.  Inside a shard
the miners poll the governor themselves, so a deadline unwinds
mid-shard too (a partial, never cached result).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dfg.builder import build_dfgs
from repro.dfg.graph import DFG
from repro.pa.fragments import Candidate
from repro.pa.legality import sp_fragile_functions
from repro.pa.liveness import lr_live_out_blocks
from repro.verify.cfg import build_module_cfg
from repro.verify.dataflow import AnalysisMemo
from repro.resilience.faultinject import fault
from repro.resilience.governor import RunGovernor
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.telemetry.events import emit

from repro.scale.cache import FragmentCache
from repro.scale.cluster import cluster_dfgs
from repro.scale.shard import (
    PRUNE_KEYS,
    TALLY_KEYS,
    ShardResult,
    _make_miner,
    build_payload,
    mine_shard,
    revive_candidates,
)

#: shard tally key -> the funnel's telemetry counter name
_TALLY_COUNTERS = {
    "considered": "pa.candidates.considered",
    "floor": "pa.candidates.skipped_floor",
    "illegal": "pa.candidates.skipped_illegal",
    "lr_infeasible": "pa.candidates.skipped_lr_infeasible",
    "order_inconsistent": "pa.candidates.skipped_order",
    "unprofitable": "pa.candidates.skipped_unprofitable",
    "scored": "pa.candidates.scored",
    "blocklist": "pa.candidates.skipped_blocklist",
}


@dataclass
class ScaleStats:
    """One round's sharding/caching census."""

    shards: int = 0
    shards_mined: int = 0
    #: shards left unmined by a governor stop mid-round
    shards_lost: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    lattice_nodes_mined: int = 0
    lattice_nodes_reused: int = 0
    deadline_hits: int = 0
    tallies: Dict[str, int] = field(default_factory=dict)
    #: the round's DFG database, built from the module before any
    #: rewrite; the candidates' graph ids index it
    dfgs: Optional[List[DFG]] = field(default=None, repr=False)


def run_sharded_round(
    module,
    config,
    governor: RunGovernor,
    cache: FragmentCache,
    memo: Optional[AnalysisMemo] = None,
    blocklist: Sequence[str] = (),
) -> Tuple[List[Candidate], ScaleStats]:
    """Mine one round of *module*; return the merged candidates.

    The returned list is sorted best-first by the candidate sort key.
    It is a pure function of (module content, config, *blocklist*) —
    independent of the cache temperature.  A run passes one *memo* to
    every round, so liveness and absint re-solve only the CFG
    components the last round's rewrites changed; *blocklist* holds the
    fingerprints a verify-failure recovery step rejected.
    """
    # a bad miner name fails before any work, even in a round with
    # nothing to mine
    _make_miner(config)
    stats = ScaleStats()
    with _TELEMETRY.span("scale.round"):
        dfgs = stats.dfgs = build_dfgs(module, min_nodes=0,
                                       mined_kinds=config.mined_kinds)
        if not dfgs:
            return [], stats
        cfg = build_module_cfg(module)
        # lr can be live across blocks (leaf returns, shared cross-jump
        # tails); a bl may only be inserted where lr is dead-out
        lr_live = lr_live_out_blocks(module, memo, cfg)
        # frameless outlined procedures address the caller's frame
        # through sp; fragments calling one must not gain a sp-shifting
        # bracket
        fragile = sp_fragile_functions(module, memo, cfg)
        with _TELEMETRY.span("scale.cluster"):
            shards = cluster_dfgs(dfgs)
        payloads = [
            build_payload(shard, dfgs, lr_live, fragile, config, blocklist)
            for shard in shards
        ]
        digests = [payload.digest() for payload in payloads]
        stats.shards = len(shards)
        with _TELEMETRY.span("scale.cache.lookup"):
            cached = [cache.get(digest) for digest in digests]
        stats.cache_misses = cached.count(None)
        stats.cache_hits = stats.shards - stats.cache_misses
        emit(
            "round.shards",
            shards=stats.shards,
            cached=stats.cache_hits,
            to_mine=stats.cache_misses,
        )
        if stats.cache_misses:
            fault("scale.pool")
        results: Dict[int, ShardResult] = {}
        lost: List[int] = []
        # merge: shard order, then one stable best-first sort — the
        # only ordering downstream ever sees
        merged: List[Candidate] = []
        tallies: Dict[str, int] = {}
        with _TELEMETRY.span("scale.mine", shards=stats.cache_misses):
            for shard, payload, digest, result in zip(
                    shards, payloads, digests, cached):
                if result is not None:
                    stats.lattice_nodes_reused += result.lattice_nodes
                    for kind, fields in result.records:
                        emit(kind, **fields)
                elif governor.should_stop():
                    lost.append(shard.index)
                    continue
                else:
                    result = mine_shard(
                        payload, [dfgs[g] for g in shard.graph_ids])
                    stats.shards_mined += 1
                    stats.lattice_nodes_mined += result.lattice_nodes
                    if _TELEMETRY.enabled and result.mine_seconds:
                        _TELEMETRY.observe("scale.shard.mine_seconds",
                                           result.mine_seconds)
                    if result.deadline_hit:
                        # partial (the mine unwound at the deadline);
                        # usable this round, but never cached
                        stats.deadline_hits += 1
                    else:
                        cache.put(digest, result)
                results[shard.index] = result
                for key, value in result.tallies.items():
                    tallies[key] = tallies.get(key, 0) + value
                merged.extend(
                    revive_candidates(dfgs, shard.graph_ids,
                                      result.candidates)
                )
        stats.shards_lost = len(lost)
        merged.sort(key=lambda c: c.sort_key())
        stats.tallies = tallies
        if _TELEMETRY.enabled:
            _TELEMETRY.count("scale.rounds")
            _TELEMETRY.count("scale.shards", stats.shards)
            _TELEMETRY.count("scale.shards.mined", stats.shards_mined)
            _TELEMETRY.count("scale.shards.lost", stats.shards_lost)
            _TELEMETRY.count("scale.cache.hits", stats.cache_hits)
            _TELEMETRY.count("scale.cache.misses", stats.cache_misses)
            _TELEMETRY.count("scale.lattice_nodes.reused",
                             stats.lattice_nodes_reused)
            _TELEMETRY.count("scale.lattice_nodes.mined",
                             stats.lattice_nodes_mined)
            for key in sorted(tallies):
                counter = _TALLY_COUNTERS.get(key)
                if counter and tallies[key]:
                    _TELEMETRY.count(counter, tallies[key])
        emit("mine.skips", **{key: tallies.get(key, 0) for key in TALLY_KEYS})
        emit("prune", **{
            key: tallies.get(attribute, 0)
            for key, attribute in PRUNE_KEYS.items()
        })
        for shard, digest, hit in zip(shards, digests, cached):
            result = results.get(shard.index)
            emit(
                "scale.shard",
                index=shard.index,
                graphs=shard.num_graphs,
                nodes=shard.num_nodes(dfgs),
                digest=digest[:12],
                cached=hit is not None,
                candidates=(len(result.candidates) if result else None),
                lattice_nodes=(result.lattice_nodes if result else None),
                lost=shard.index in lost,
            )
        emit(
            "scale.round",
            shards=stats.shards,
            mined=stats.shards_mined,
            lost=stats.shards_lost,
            cache_hits=stats.cache_hits,
            cache_misses=stats.cache_misses,
            lattice_nodes_mined=stats.lattice_nodes_mined,
            lattice_nodes_reused=stats.lattice_nodes_reused,
            candidates=len(merged),
        )
        if lost:
            emit(
                "scale.salvage",
                salvaged=sorted(results),
                lost=lost,
                candidates=len(merged),
            )
    return merged, stats
