"""The multiprocess worklist scheduler for sharded mining.

One call to :func:`run_sharded_round` replaces the serial driver's
``collect_candidates`` for a round: cluster the DFG database, consult
the fragment cache per shard, mine the missing shards (in-process for
``workers <= 1``, in a worker pool otherwise), and merge.

Determinism invariants (the bit-identity gate relies on these):

* **Worker count never changes the result.**  Each shard is mined by
  the same pure function (:func:`~repro.scale.shard.mine_shard`) with a
  shard-local benefit floor — no cross-shard state — and the merge
  concatenates shard results in deterministic shard order before one
  stable sort by the candidate sort key.  Scheduling order, pool size
  and completion order are invisible.
* **Cache state never changes the result.**  A cache key is a complete
  content digest of the work unit (instructions, legality facts,
  mining config, wire-format schema), so a hit returns exactly what
  mining would produce.
* **Instrumentation parity.**  When telemetry is enabled, shard mining
  records into an isolated capture scope (:mod:`repro.telemetry.remote`)
  in *both* the in-process and the worker path, and the parent stitches
  every snapshot back in deterministic shard order — so counters and
  span counts are identical for any ``--workers`` value and any cache
  temperature (only durations, pids and timestamps differ, which is
  what a trace is for).  When telemetry is disabled the same capture
  scope runs suppressed, preserving the bit-identity guarantee.  The
  ledger stays parent-only either way: the parent replays each shard's
  funnel tallies and emits per-shard ledger records itself.  Progress
  events (:mod:`repro.telemetry.progress`) flow from workers over a
  queue handed through the pool initializer and are drained in the
  parent's poll loop, which doubles as the straggler watchdog.

Fault tolerance: shard expansion runs on the supervised executor
(:mod:`repro.scale.supervise`) — tracked worker processes with
sentinel watching, a bounded per-shard retry budget with deterministic
governor-aware backoff, an optional soft timeout, and a
serial-fallback-then-quarantine policy for shards that keep failing.
A quarantined shard degrades the run (``run.degraded`` +
``scale.quarantine`` ledger record) or, under ``--strict-shards``,
raises a typed :class:`~repro.resilience.errors.ShardError` after the
round rolls back.  Because a retried shard re-runs the same pure
function, the crash/retry schedule is as invisible as the worker
count.

Governor-aware teardown: the parent polls the active run governor
between completions; on SIGINT/SIGTERM/deadline it tears the fleet
down (children ignore SIGINT — delivery is the parent's decision),
salvages every shard that already completed as the round's
best-so-far, and reports the lost shards — mirroring the serial
engine's anytime semantics.  Worker children run with fault injection
disarmed, so chaos specs fire deterministically in the parent (see
``scale.pool`` and the ``scale.worker.*``/``scale.shard.poison``
dispatch directives).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.dfg.builder import build_dfgs
from repro.pa.fragments import Candidate
from repro.pa.legality import sp_fragile_functions
from repro.verify.absint import AuditMemo
from repro.pa.liveness import lr_live_out_blocks
from repro.report.ledger import GLOBAL as _LEDGER
from repro.resilience.errors import ShardError
from repro.resilience.faultinject import fault
from repro.resilience.governor import RunGovernor
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.telemetry import progress as _progress
from repro.telemetry import remote as _remote

from repro.scale.cache import FragmentCache
from repro.scale.cluster import Shard, cluster_dfgs
from repro.scale.delta import DeltaPlanner
from repro.scale.shard import (
    ShardPayload,
    ShardResult,
    build_payload,
    revive_candidates,
)
from repro.scale.supervise import (
    DEFAULT_SHARD_RETRIES,
    SuperviseOutcome,
    mine_serial,
    supervise_mine,
)

#: shard tally key -> the serial funnel's telemetry counter name
_TALLY_COUNTERS = {
    "considered": "pa.candidates.considered",
    "floor": "pa.candidates.skipped_floor",
    "illegal": "pa.candidates.skipped_illegal",
    "lr_infeasible": "pa.candidates.skipped_lr_infeasible",
    "order_inconsistent": "pa.candidates.skipped_order",
    "unprofitable": "pa.candidates.skipped_unprofitable",
    "scored": "pa.candidates.scored",
}


@dataclass
class ScaleStats:
    """One round's sharding/caching census."""

    workers: int = 1
    shards: int = 0
    shards_mined: int = 0
    #: shards torn down before completing (governor stop mid-round)
    shards_lost: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    cache_invalid: int = 0
    lattice_nodes_mined: int = 0
    lattice_nodes_reused: int = 0
    deadline_hits: int = 0
    delta_clean: int = 0
    delta_dirty: int = 0
    #: shards whose heartbeats went stale past the watchdog threshold
    #: (they may still have completed — stalled flags imbalance, not
    #: loss)
    stragglers: int = 0
    #: shard redeliveries (worker death / timeout / failed attempt)
    shard_retries: int = 0
    #: distinct shards that needed more than one delivery
    shards_retried: int = 0
    #: exhausted shards recovered by the in-parent serial fallback
    shard_fallbacks: int = 0
    #: shards dropped after retries and the serial fallback all failed
    shards_quarantined: int = 0
    tallies: Dict[str, int] = field(default_factory=dict)


def run_sharded_round(
    module,
    config,
    governor: RunGovernor,
    cache: FragmentCache,
    planner: Optional[DeltaPlanner] = None,
    audit_memo: Optional[AuditMemo] = None,
) -> Tuple[List[Candidate], ScaleStats]:
    """Mine one round sharded/parallel/cached; return merged candidates.

    The returned list is sorted best-first by the same key as the
    serial funnel and is a pure function of (module content, config) —
    independent of ``config.workers``, cache temperature, scheduling
    and teardown history of previous runs.
    """
    workers = max(1, config.workers)
    stats = ScaleStats(workers=workers)
    bus = _progress.active()
    capture_telemetry = _TELEMETRY.enabled
    with _TELEMETRY.span("scale.round", workers=workers):
        dfgs = build_dfgs(module, min_nodes=0,
                          mined_kinds=config.mined_kinds)
        if not dfgs:
            return [], stats
        lr_live = lr_live_out_blocks(module)
        fragile = sp_fragile_functions(module, audit_memo)
        with _TELEMETRY.span("scale.cluster"):
            shards = cluster_dfgs(dfgs)
        payloads = [
            build_payload(shard, dfgs, lr_live, fragile, config)
            for shard in shards
        ]
        digests = [payload.digest() for payload in payloads]
        stats.shards = len(shards)
        if planner is not None:
            plan = planner.plan(digests)
            stats.delta_clean = len(plan.clean)
            stats.delta_dirty = len(plan.dirty)
        invalid_before = cache.stats.invalid
        results: Dict[int, ShardResult] = {}
        to_mine: List[Tuple[Shard, ShardPayload, str]] = []
        with _TELEMETRY.span("scale.cache.lookup"):
            for shard, payload, digest in zip(shards, payloads, digests):
                body = cache.get(digest)
                if body is not None:
                    result = ShardResult.from_doc(shard.index, body)
                    results[shard.index] = result
                    stats.lattice_nodes_reused += result.lattice_nodes
                else:
                    to_mine.append((shard, payload, digest))
        stats.cache_hits = len(results)
        stats.cache_misses = len(to_mine)
        stats.cache_invalid = cache.stats.invalid - invalid_before
        _progress.publish(
            "round.shards",
            shards=stats.shards,
            cached=stats.cache_hits,
            to_mine=len(to_mine),
            workers=workers,
        )
        lost: List[int] = []
        torn_down = False
        sup: Optional[SuperviseOutcome] = None
        retry_budget = getattr(config, "shard_retries",
                               DEFAULT_SHARD_RETRIES)
        if to_mine:
            fault("scale.pool")
            with _TELEMETRY.span("scale.mine", shards=len(to_mine)):
                if workers <= 1:
                    sup = mine_serial(to_mine, governor, bus,
                                      capture_telemetry,
                                      retries=retry_budget)
                else:
                    sup = supervise_mine(
                        to_mine, workers, governor, bus,
                        capture_telemetry,
                        retries=retry_budget,
                        timeout=getattr(config, "shard_timeout", None),
                    )
                results.update(sup.completed)
                lost = sup.lost
                torn_down = sup.torn_down
                stats.stragglers = sup.stragglers
                stats.shard_retries = sup.retries
                stats.shards_retried = sup.shards_retried
                stats.shard_fallbacks = sup.fallbacks
                stats.shards_quarantined = len(sup.dropped)
                if capture_telemetry:
                    # stitch worker telemetry in deterministic shard
                    # order, inside the scale.mine span so worker
                    # spans nest under it in the profile tree
                    for shard in shards:
                        result = results.get(shard.index)
                        if result is None or result.telemetry is None:
                            continue
                        _remote.merge_snapshot(_TELEMETRY,
                                               result.telemetry)
                        result.telemetry = None
            for shard, payload, digest in to_mine:
                result = results.get(shard.index)
                if result is None:
                    continue
                stats.shards_mined += 1
                stats.lattice_nodes_mined += result.lattice_nodes
                if capture_telemetry and result.mine_seconds:
                    _TELEMETRY.observe("scale.shard.mine_seconds",
                                       result.mine_seconds)
                    _TELEMETRY.event(
                        "scale.shard.timing",
                        shard=shard.index,
                        seconds=round(result.mine_seconds, 6),
                        lattice_nodes=result.lattice_nodes,
                        graphs=shard.num_graphs,
                    )
                if result.deadline_hit:
                    # partial (the mine unwound at the deadline);
                    # usable this round, but never cached
                    stats.deadline_hits += 1
                else:
                    cache.put(digest, result.to_doc())
        stats.shards_lost = len(lost)
        # merge: shard order, then one stable best-first sort — the
        # only ordering downstream ever sees
        merged: List[Candidate] = []
        tallies: Dict[str, int] = {}
        for shard in shards:
            result = results.get(shard.index)
            if result is None:
                continue
            for key, value in result.tallies.items():
                tallies[key] = tallies.get(key, 0) + value
            merged.extend(
                revive_candidates(dfgs, shard.graph_ids,
                                  result.candidates)
            )
        merged.sort(key=lambda c: c.sort_key())
        stats.tallies = tallies
        if _TELEMETRY.enabled:
            _TELEMETRY.count("scale.rounds")
            _TELEMETRY.count("scale.shards", stats.shards)
            _TELEMETRY.count("scale.shards.mined", stats.shards_mined)
            _TELEMETRY.count("scale.shards.lost", stats.shards_lost)
            _TELEMETRY.count("scale.cache.hits", stats.cache_hits)
            _TELEMETRY.count("scale.cache.misses", stats.cache_misses)
            _TELEMETRY.count("scale.cache.invalid", stats.cache_invalid)
            _TELEMETRY.count("scale.lattice_nodes.reused",
                             stats.lattice_nodes_reused)
            _TELEMETRY.count("scale.lattice_nodes.mined",
                             stats.lattice_nodes_mined)
            _TELEMETRY.count("scale.shard.retries",
                             stats.shard_retries)
            _TELEMETRY.count("scale.shards.quarantined",
                             stats.shards_quarantined)
            for key in sorted(tallies):
                counter = _TALLY_COUNTERS.get(key)
                if counter and tallies[key]:
                    _TELEMETRY.count(counter, tallies[key])
        dropped = ({q["shard"] for q in sup.dropped}
                   if sup is not None else set())
        if _LEDGER.enabled:
            for shard, payload, digest in zip(shards, payloads, digests):
                result = results.get(shard.index)
                _LEDGER.emit(
                    "scale.shard",
                    index=shard.index,
                    graphs=shard.num_graphs,
                    nodes=shard.num_nodes(dfgs),
                    digest=digest[:12],
                    cached=shard.index not in
                           {s.index for s, __, ___ in to_mine},
                    candidates=(len(result.candidates)
                                if result else None),
                    lattice_nodes=(result.lattice_nodes
                                   if result else None),
                    lost=shard.index in lost,
                    quarantined=shard.index in dropped,
                )
            if sup is not None:
                for attempt in sup.failures:
                    _LEDGER.emit(
                        "scale.retry",
                        shard=attempt.shard,
                        attempt=attempt.attempt,
                        error=attempt.error,
                        retried=attempt.will_retry,
                    )
                for q in sup.quarantined:
                    _LEDGER.emit(
                        "scale.quarantine",
                        shard=q["shard"],
                        attempts=q["attempts"],
                        error=q["error"],
                        recovered=q["recovered"],
                    )
            _LEDGER.emit(
                "scale.round",
                workers=workers,
                shards=stats.shards,
                mined=stats.shards_mined,
                lost=stats.shards_lost,
                cache_hits=stats.cache_hits,
                cache_misses=stats.cache_misses,
                cache_invalid=stats.cache_invalid,
                lattice_nodes_mined=stats.lattice_nodes_mined,
                lattice_nodes_reused=stats.lattice_nodes_reused,
                delta_clean=stats.delta_clean,
                delta_dirty=stats.delta_dirty,
                stragglers=stats.stragglers,
                retries=stats.shard_retries,
                fallbacks=stats.shard_fallbacks,
                quarantined=stats.shards_quarantined,
                candidates=len(merged),
            )
            if torn_down or lost:
                _LEDGER.emit(
                    "scale.salvage",
                    salvaged=sorted(results),
                    lost=sorted(lost),
                    candidates=len(merged),
                )
        if stats.shards_quarantined:
            # the merge above already excluded the dropped shards; the
            # run continues degraded — unless the user asked for
            # strictness, in which case the round rolls back and the
            # failure surfaces as a documented exit code
            governor.note("shards_quarantined")
            if getattr(config, "strict_shards", False):
                assert sup is not None
                detail = "; ".join(
                    f"shard {q['shard']}: {q['error']}"
                    for q in sup.dropped)
                raise ShardError(
                    f"{stats.shards_quarantined} shard(s) quarantined "
                    f"after {retry_budget} retr"
                    f"{'y' if retry_budget == 1 else 'ies'} and the "
                    f"serial fallback ({detail})")
    return merged, stats
