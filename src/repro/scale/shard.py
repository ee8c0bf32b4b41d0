"""The candidate funnel (paper §2.1 step 8) over one shard of DFGs.

This is the one mining engine.  Every round mines the shards of the
block DFG database, the independent clusters of
:func:`~repro.scale.cluster.cluster_dfgs`.

A :class:`ShardPayload` is a *self-contained*, content-addressed unit
of mining work: the shard's instruction lists, the per-block legality
facts the funnel needs (lr-liveness on exit, the sp-fragile callees the
shard actually calls), and the mining-relevant config knobs.  Nothing
in it references global DFG indices, block coordinates or symbol names
outside the shard (unless a verify-retry blocklist is active, see
:class:`ShardPayload`), so its :meth:`~ShardPayload.digest` is a
stable cache key — two shards with identical content mine to
identical results no matter where (or in which round) their blocks
live.

:func:`mine_shard` runs the funnel (floor prune -> legality -> MIS ->
order consistency -> score) with a shard-local benefit floor, once per
distinct occurrence list, and returns a :class:`ShardResult` whose
candidates use *local* graph ids, together with the decision records
the mine emitted; :func:`revive_candidates` maps the candidates back
onto the round's global DFG database, re-deriving instruction objects
and origins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.dfg.graph import DFG
from repro.isa.instructions import Instruction
from repro.isa.operands import LabelRef
from repro.mining.edgar import Edgar, non_overlapping_embeddings
from repro.mining.embeddings import Embedding
from repro.mining.gspan import DgSpan, Fragment
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
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.telemetry import events as _events
from repro.telemetry import progress as _progress
from repro.telemetry.events import emit

import hashlib
import time

#: Funnel tallies a shard reports: the ``mine.skips`` census, also
#: replayed into telemetry counters by the parent.
TALLY_KEYS = (
    "considered", "floor", "illegal", "lr_infeasible",
    "order_inconsistent", "unprofitable", "scored", "blocklist",
)

#: Lattice-prune counts a shard reports, also as tallies: ``prune``
#: ledger record field -> miner attribute (= tally key).
PRUNE_KEYS = {
    "never_convex": "pruned_never_convex",
    "cyclic": "pruned_cyclic",
    "illegal": "pruned_illegal",
}

#: The decision records a shard keeps and a cache hit replays.  The
#: others a mine emits (``mine.pass``, ``heartbeat``) report work done.
DECISION_KINDS = frozenset({"candidate", "legality", "mis"})


@dataclass(frozen=True)
class ShardMiningConfig:
    """The mining-relevant PAConfig subset (part of the cache key)."""

    miner: str
    min_support: int
    min_nodes: int
    max_nodes: int
    max_embeddings: int
    pa_pruning: bool
    mis_exact_limit: int
    mined_kinds: Tuple[str, ...]      #: sorted

    @classmethod
    def from_config(cls, config) -> "ShardMiningConfig":
        return cls(
            miner=config.miner,
            min_support=config.min_support,
            min_nodes=config.min_nodes,
            max_nodes=config.max_nodes,
            max_embeddings=config.max_embeddings,
            pa_pruning=config.pa_pruning,
            mis_exact_limit=config.mis_exact_limit,
            mined_kinds=tuple(sorted(config.mined_kinds)),
        )


def _make_miner(config):
    """The miner *config* names (a PAConfig or a ShardMiningConfig)."""
    if config.miner == "edgar":
        return Edgar(
            min_support=config.min_support,
            min_nodes=config.min_nodes,
            max_nodes=config.max_nodes,
            max_embeddings=config.max_embeddings,
            pa_pruning=config.pa_pruning,
            mis_exact_limit=config.mis_exact_limit,
        )
    if config.miner == "dgspan":
        return DgSpan(
            min_support=config.min_support,
            min_nodes=config.min_nodes,
            max_nodes=config.max_nodes,
            max_embeddings=config.max_embeddings,
        )
    raise ValueError(f"unknown miner: {config.miner!r}")


@dataclass
class ShardPayload:
    """One self-contained unit of mining work (see module docstring)."""

    shard_index: int
    #: per local graph: the block's instructions, in order
    block_insns: List[List[Instruction]]
    #: per local graph: is lr live on exit from this block?
    lr_live: Tuple[bool, ...]
    #: sp-fragile callee names, restricted to calls the shard makes
    fragile: Tuple[str, ...]
    config: ShardMiningConfig
    #: canonical fingerprints of candidates a verify-failure recovery
    #: step blocklisted; the funnel skips them before they can set the
    #: floor.  A fingerprint names block coordinates, so a non-empty
    #: blocklist records each local graph's ``(function, block)``
    #: origin too — both are then part of the digest.
    blocklist: Tuple[str, ...] = ()
    origins: Tuple[Tuple[str, int], ...] = ()

    def digest(self) -> str:
        """The content-addressed cache key of this work unit.

        hashlib (not ``hash()``, which is per-process salted) over the
        mining config and each block's rendered instruction text + lr
        flag, plus the restricted fragile set
        (and the blocklist with the origins, when there is one).
        Rendered text is a faithful canonical form — the checkpoint
        layer already relies on the render -> reparse round trip being
        exact.
        """
        hasher = hashlib.sha256()
        conf = self.config
        parts = [
            conf.miner,
            str(conf.min_support),
            str(conf.min_nodes),
            str(conf.max_nodes),
            str(conf.max_embeddings),
            str(conf.pa_pruning),
            str(conf.mis_exact_limit),
            ",".join(conf.mined_kinds),
            "\x1e".join(self.fragile),
        ]
        for insns, lr_flag in zip(self.block_insns, self.lr_live):
            parts.append(
                ("L" if lr_flag else "-")
                + "\x1e".join(str(insn) for insn in insns)
            )
        if self.blocklist:
            parts.append("\x1e".join(self.blocklist))
            parts.append("\x1e".join(f"{f}#{b}" for f, b in self.origins))
        hasher.update("\x1f".join(parts).encode())
        return hasher.hexdigest()


@dataclass
class ShardResult:
    """What one mined shard reports back; the fragment cache keeps it
    as is for the rest of the run.

    ``candidates`` hold *local* graph ids; instructions and origins are
    re-derived against the live module at revival, which is what makes
    the result position-independent and reusable in a later round.
    """

    candidates: List[Candidate] = field(default_factory=list)
    lattice_nodes: int = 0
    #: the :data:`TALLY_KEYS` counts and the miner's prune counts
    #: (keyed by the :data:`PRUNE_KEYS` attribute names)
    tallies: Dict[str, int] = field(default_factory=dict)
    #: the :data:`DECISION_KINDS` records the mine emitted to a sink,
    #: in order, each with its ``mine_pass`` (see
    #: :func:`~repro.telemetry.events.recording`): a cache hit emits
    #: them again under the round that reuses the shard
    records: List[Tuple[str, Dict[str, Any]]] = field(default_factory=list)
    #: the mine was truncated by the deadline — partial, never cached
    deadline_hit: bool = False
    #: wall-clock of this mine; observed for mined shards only
    mine_seconds: float = 0.0


def shard_call_targets(block_insns: Sequence[Sequence[Instruction]]
                       ) -> frozenset:
    """Direct call targets appearing anywhere in the shard's blocks."""
    targets = set()
    for insns in block_insns:
        for insn in insns:
            if insn.is_call and insn.operands and isinstance(
                insn.operands[0], LabelRef
            ):
                targets.add(insn.operands[0].name)
    return frozenset(targets)


def build_payload(shard, dfgs: Sequence[DFG], lr_live, fragile,
                  config, blocklist=()) -> ShardPayload:
    """Assemble the self-contained payload of one shard.

    *lr_live* is the module-global set of (function, block) origins
    with lr live-out; *fragile* the module-global sp-fragile callee
    set.  Both are narrowed to shard-local facts here: per-block flags,
    and the intersection with the calls the shard actually makes — so
    the payload (and its digest) only changes when a fact that can
    change this shard's mining outcome changes.
    """
    block_insns = [list(dfgs[g].insns) for g in shard.graph_ids]
    lr_flags = tuple(dfgs[g].origin in lr_live for g in shard.graph_ids)
    fragile_local = tuple(sorted(
        frozenset(fragile) & shard_call_targets(block_insns)
    ))
    blocklist = tuple(sorted(blocklist))
    return ShardPayload(
        shard_index=shard.index,
        block_insns=block_insns,
        lr_live=lr_flags,
        fragile=fragile_local,
        config=ShardMiningConfig.from_config(config),
        blocklist=blocklist,
        origins=(tuple(dfgs[g].origin for g in shard.graph_ids)
                 if blocklist else ()),
    )


def mine_shard(payload: ShardPayload, dfgs: Sequence[DFG]) -> ShardResult:
    """Run the candidate funnel over one shard, in the calling process.

    Fragments are scored as the miner reports them (streaming); the
    shard's best benefit so far is fed back as a lattice floor, pruning
    every subtree whose optimistic (size, occurrences) bound cannot beat
    it — both quantities are antimonotone, so the prune never loses the
    shard's best candidate.  Candidates scored along the way (before the
    floor overtook them) are kept for batch application.  A shallow
    pre-pass (``max_nodes`` 3) seeds the floor cheaply, then the full
    pass runs with the same miner.  With ``pa_pruning`` on, either
    miner grows only subtrees that can still hold a legal candidate
    (:class:`~repro.pa.legality.LatticeLegality`).

    The lattice holds one node per edge subset of the same node tuples,
    and past the floor a node's verdict depends only on its occurrence
    list.  The funnel decides each occurrence list once per shard and
    replays the decision (its tally and the events it emitted) for
    every later node with that list; a scored candidate is kept once.

    *dfgs* are the shard's DFGs in payload order, taken from the
    round's DFG database.  Deterministic for fixed payload content: no
    randomness, no global state, stable tie-breaks.  While a sink takes ``candidate`` events
    (the ledger), the funnel emits them and attaches provenance to the
    scored candidates.

    The ``candidate``, ``legality`` and ``mis`` records the funnel
    emits are kept in the result's ``records`` for a cache hit to
    replay.

    The active run governor is polled throughout, so a deadline or
    interrupt unwinds cleanly mid-shard; the result is then flagged
    ``deadline_hit`` (still sound, but partial — callers must not
    cache it).
    """
    started = time.perf_counter()
    emit("shard.start", shard=payload.shard_index,
         blocks=len(payload.block_insns))
    conf = payload.config
    fragile = frozenset(payload.fragile)
    lr_flags = payload.lr_live
    blocklist = frozenset(payload.blocklist)
    miner = _make_miner(conf)
    best: List[Optional[Candidate]] = [None]
    #: scored candidates by (method, embeddings): two occurrence lists
    #: whose legal, disjoint, order-consistent parts agree score one
    #: candidate, kept once
    collected: Dict[tuple, Candidate] = {}
    tallies = {key: 0 for key in TALLY_KEYS}
    #: occurrence list -> (tally key, the events its decision emitted)
    verdicts: Dict[Tuple[Embedding, ...], Tuple[str, list]] = {}
    ledger_on = _events.wants("candidate")

    def floor() -> int:
        return best[0].benefit if best[0] is not None else 0

    def prune_subtree(size_cap: int, occurrence_bound: int) -> bool:
        return best_possible_benefit(size_cap, occurrence_bound) <= floor()

    def consider(size: int, occurrence_bound: int,
                 embeddings: List[Embedding], build) -> None:
        tallies["considered"] += 1
        _progress.heartbeat(
            shard=payload.shard_index,
            considered=tallies["considered"],
            scored=tallies["scored"],
            lattice_nodes=miner.visited_nodes,
            best_benefit=floor(),
        )
        if prune_subtree(size, occurrence_bound):
            tallies["floor"] += 1
            return
        # Per-embedding legality below costs a reachability sweep
        # each; a deterministic prefix keeps scoring bounded (a sound
        # benefit undercount).  Past the floor, the verdict depends only
        # on that occurrence list: another edge subset of the same node
        # tuples repeats it.
        key = tuple(embeddings[:1000])
        known = verdicts.get(key)
        if known is None:
            _TELEMETRY.count("pa.funnel.solves")
            frag = build()
            frag.embeddings = list(key)
            with _events.recording() as emitted:
                verdict = decide(frag)
            verdicts[key] = verdict, emitted
        else:
            verdict, emitted = known
            for kind, fields in emitted:
                emit(kind, **fields)
        tallies[verdict] += 1

    def decide(frag) -> str:
        """The funnel's verdict on *frag* (a tally key); a ``scored``
        candidate is collected and may raise the floor."""
        method, legal = legal_embeddings(dfgs, frag, fragile)
        if method is None or len(legal) < 2:
            return "illegal"
        if ledger_on:
            # the candidate record's funnel census, stage by stage
            funnel = {"labels": list(frag.node_labels),
                      "size": frag.num_nodes,
                      "method": method.value,
                      "embeddings": len(frag.embeddings),
                      "legal": len(legal)}
        if method is ExtractionMethod.CALL:
            # lr can be live across blocks (leaf returns, shared
            # cross-jump tails); a bl may only go where lr is dead-out
            legal = [
                e for e in legal
                if not lr_flags[e.graph]
                and call_site_feasible(dfgs[e.graph], e.nodes)
            ]
            if len(legal) < 2:
                if ledger_on:
                    emit("candidate", verdict="lr_infeasible", **funnel,
                         lr_feasible=len(legal))
                return "lr_infeasible"
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
            if ledger_on:
                emit("candidate", verdict="order_inconsistent", **funnel)
            return "order_inconsistent"
        witness = kept[0]
        insns = [dfgs[witness.graph].insns[n] for n in witness.nodes]
        origins = tuple(sorted({dfgs[e.graph].origin for e in kept}))
        candidate = score(frag, method, insns, kept, union, origins)
        if candidate is None:
            if ledger_on:
                if method is ExtractionMethod.CALL:
                    benefit = call_benefit(
                        frag.num_nodes, len(kept), call_overhead(insns)
                    )
                else:
                    benefit = crossjump_benefit(frag.num_nodes, len(kept))
                emit("candidate", verdict="unprofitable", **funnel,
                     benefit=benefit)
            return "unprofitable"
        if blocklist and candidate.fingerprint() in blocklist:
            # Blocklisted by a verify-failure recovery step: the
            # fingerprint is canonical (method + instruction text +
            # origins), so the re-mined round skips exactly the
            # candidate whose extraction failed validation — before
            # it can raise the floor over its runners-up.
            return "blocklist"
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
        collected.setdefault(
            (candidate.method, tuple(candidate.embeddings)), candidate
        )
        if best[0] is None or candidate.sort_key() < best[0].sort_key():
            best[0] = candidate
        return "scored"

    def mine_pass(name: str, graphs: Sequence[DFG]) -> None:
        with _TELEMETRY.span(f"pa.mine.{name}"), \
                _events.context(mine_pass=name):
            miner.mine(graphs)

    miner.prune_subtree = prune_subtree
    if conf.pa_pruning:
        # the funnel scores only legal candidates, so subtrees with
        # nothing legally extractable need not be grown
        miner.prune_illegal = LatticeLegality(fragile)
    miner.on_fragment = consider
    try:
        with _TELEMETRY.span("scale.shard.mine",
                             shard=payload.shard_index,
                             graphs=len(dfgs)), \
                _events.recording() as emitted:
            if miner.max_nodes > 4:
                # Quick shallow pre-pass: small fragments with many
                # occurrences are found in milliseconds and set a
                # benefit floor that prunes most of the deep lattice
                # before the full-depth pass even starts.
                saved_max = miner.max_nodes
                miner.max_nodes = 3
                try:
                    mine_pass("shallow", dfgs)
                finally:
                    miner.max_nodes = saved_max
            mine_pass("full", dfgs)
    finally:
        miner.prune_subtree = None
        miner.prune_illegal = None
        miner.on_fragment = None
    candidates = sorted(collected.values(), key=lambda c: c.sort_key())
    for attribute in PRUNE_KEYS.values():
        tallies[attribute] = getattr(miner, attribute)
    result = ShardResult(
        candidates=candidates,
        lattice_nodes=miner.visited_nodes,
        tallies=tallies,
        records=[(kind, fields) for kind, fields in emitted
                 if kind in DECISION_KINDS],
        deadline_hit=miner.deadline_hit,
        mine_seconds=time.perf_counter() - started,
    )
    emit(
        "shard.done",
        shard=payload.shard_index,
        seconds=round(result.mine_seconds, 6),
        lattice_nodes=result.lattice_nodes,
        graphs=len(dfgs),
        candidates=len(result.candidates),
        deadline_hit=result.deadline_hit,
    )
    return result


def revive_candidates(dfgs: Sequence[DFG], graph_ids: Sequence[int],
                      candidates: Sequence[Candidate]) -> List[Candidate]:
    """Map a shard result's candidates onto the global DFG database.

    Local graph ids become global ones through *graph_ids* (the shard's
    member list), instruction objects are re-read from the live DFGs
    via the witness embedding, and origins are re-derived — which is
    what lets cached results apply to a module whose *other* blocks
    have changed.
    """
    revived: List[Candidate] = []
    for local in candidates:
        embeddings = [
            Embedding(graph_ids[e.graph], e.nodes)
            for e in local.embeddings
        ]
        witness = embeddings[0]
        insns = [dfgs[witness.graph].insns[n] for n in witness.nodes]
        origins = tuple(sorted({dfgs[e.graph].origin for e in embeddings}))
        frag = local.fragment
        fragment = Fragment(
            code=(),
            node_labels=frag.node_labels,
            edges=frag.edges,
            embeddings=embeddings,
            support=frag.support,
        )
        revived.append(
            Candidate(
                fragment=fragment,
                method=local.method,
                insns=insns,
                embeddings=embeddings,
                benefit=local.benefit,
                union_edges=local.union_edges,
                origins=origins,
                provenance=local.provenance,
            )
        )
    return revived
