"""The candidate funnel (paper §2.1 step 8) over one shard of DFGs.

This is the one mining engine.  Every round mines shards of the block
DFG database: ``--workers 0`` mines one shard that holds every DFG,
``--workers N >= 1`` the independent clusters of
:func:`~repro.scale.cluster.cluster_dfgs`.

A :class:`ShardPayload` is a *self-contained*, content-addressed unit
of mining work: the shard's instruction lists, the per-block legality
facts the funnel needs (lr-liveness on exit, the sp-fragile callees the
shard actually calls), and the mining-relevant config knobs.  Nothing
in it references global DFG indices, block coordinates or symbol names
outside the shard (unless a verify-retry blocklist is active, see
:class:`ShardPayload`), so

* it pickles across a process boundary unchanged (worker pools), and
* its :meth:`~ShardPayload.digest` is a stable cache key — two shards
  with identical content mine to identical results no matter where (or
  in which round, or in which run) their blocks live.

:func:`mine_shard` runs the funnel (floor prune -> legality -> MIS ->
order consistency -> score) with a shard-local benefit floor and
returns a :class:`ShardResult` whose candidates use *local* graph ids;
:func:`revive_candidates` maps them back onto the round's global DFG
database, re-deriving instruction objects and origins.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.binary.program import BasicBlock
from repro.dfg.builder import build_dfg
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
from repro.report.ledger import GLOBAL as _LEDGER
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.telemetry import progress as _progress

import hashlib
import time

#: Version tag of the shard payload/result wire format.  Bump on any
#: change to the funnel, the payload fields or the candidate wire
#: format — it is folded into every cache key, so a bump invalidates
#: all persisted entries instead of silently reviving stale results.
SHARD_SCHEMA = "repro.scale.shard/3"

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
    #: blocklist ships each local graph's ``(function, block)`` origin
    #: too — both are then part of the digest.
    blocklist: Tuple[str, ...] = ()
    origins: Tuple[Tuple[str, int], ...] = ()

    def digest(self) -> str:
        """The content-addressed cache key of this work unit.

        hashlib (not ``hash()``, which is per-process salted) over the
        schema tag, the mining config, and each block's rendered
        instruction text + lr flag, plus the restricted fragile set
        (and the blocklist with the origins, when there is one).
        Rendered text is a faithful canonical form — the checkpoint
        layer already relies on the render -> reparse round trip being
        exact.
        """
        hasher = hashlib.sha256()
        conf = self.config
        parts = [
            SHARD_SCHEMA,
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

    def build_dfgs(self) -> List[DFG]:
        """The shard's DFGs, rebuilt from the payload (worker side)."""
        kinds = frozenset(self.config.mined_kinds)
        return [
            build_dfg(BasicBlock([], list(insns)),
                      origin=(self.origins[local] if self.origins
                              else ("", local)),
                      mined_kinds=kinds)
            for local, insns in enumerate(self.block_insns)
        ]


@dataclass
class ShardResult:
    """What one mined shard reports back.

    ``candidates`` hold *local* graph ids; instructions and origins are
    re-derived against the live module at revival, which is what makes
    the result position-independent and cacheable (:meth:`to_doc`
    keeps neither).
    """

    shard_index: int
    candidates: List[Candidate] = field(default_factory=list)
    lattice_nodes: int = 0
    #: the :data:`TALLY_KEYS` counts and the miner's prune counts
    #: (keyed by the :data:`PRUNE_KEYS` attribute names)
    tallies: Dict[str, int] = field(default_factory=dict)
    #: the mine was truncated by the deadline — partial, never cached
    deadline_hit: bool = False
    #: wall-clock of this mine.  Transient observability — excluded
    #: from :meth:`to_doc`, so a cached entry never replays a stale
    #: timing (cache hits report 0.0).
    mine_seconds: float = 0.0
    #: worker telemetry snapshot (:mod:`repro.telemetry.remote`), set
    #: by the pool when capture is on.  Transient, never persisted.
    telemetry: Optional[Dict[str, Any]] = None
    #: the funnel's ledger records (:func:`repro.report.ledger.capture`),
    #: set when the parent's ledger is on.  Transient, never persisted.
    ledger: Optional[Dict[str, Any]] = None

    def to_doc(self) -> Dict[str, Any]:
        """The JSON body persisted by the fragment cache."""
        return {
            "candidates": [_candidate_to_wire(c) for c in self.candidates],
            "lattice_nodes": self.lattice_nodes,
            "tallies": dict(self.tallies),
        }

    @classmethod
    def from_doc(cls, shard_index: int,
                 doc: Dict[str, Any]) -> "ShardResult":
        return cls(
            shard_index=shard_index,
            candidates=[_candidate_from_wire(d) for d in doc["candidates"]],
            lattice_nodes=int(doc["lattice_nodes"]),
            tallies={k: int(v) for k, v in doc["tallies"].items()},
        )


def _candidate_to_wire(candidate: Candidate) -> Dict[str, Any]:
    fragment = candidate.fragment
    return {
        "method": candidate.method.value,
        "benefit": candidate.benefit,
        "embeddings": [[e.graph, list(e.nodes)]
                       for e in candidate.embeddings],
        "union_edges": sorted(list(e) for e in candidate.union_edges),
        "fragment": {
            "labels": list(fragment.node_labels),
            "edges": [list(e) for e in fragment.edges],
            "support": fragment.support,
        },
    }


def _candidate_from_wire(data: Dict[str, Any]) -> Candidate:
    """A cached candidate, local ids; revival fills in instructions."""
    embeddings = [Embedding(graph, tuple(nodes))
                  for graph, nodes in data["embeddings"]]
    frag = data["fragment"]
    return Candidate(
        fragment=Fragment(
            code=(),
            node_labels=list(frag["labels"]),
            edges=[tuple(e) for e in frag["edges"]],
            embeddings=embeddings,
            support=frag["support"],
        ),
        method=ExtractionMethod(data["method"]),
        insns=[],
        embeddings=embeddings,
        benefit=data["benefit"],
        union_edges={tuple(e) for e in data["union_edges"]},
    )


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


def mine_shard(payload: ShardPayload,
               dfgs: Optional[Sequence[DFG]] = None) -> ShardResult:
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

    *dfgs* are the shard's DFGs in payload order; the parent passes
    the round's own DFGs, a worker rebuilds them from the payload.
    Deterministic for fixed payload content: no randomness, no global
    state, stable tie-breaks.  While the ledger is on, the funnel emits
    ``candidate`` records and attaches provenance to the scored
    candidates.

    The active run governor is polled throughout, so a deadline or
    interrupt unwinds cleanly mid-shard; the result is then flagged
    ``deadline_hit`` (still sound, but partial — callers must not
    cache it).
    """
    started = time.perf_counter()
    _progress.publish("shard.start", shard=payload.shard_index,
                      blocks=len(payload.block_insns))
    conf = payload.config
    if dfgs is None:
        dfgs = payload.build_dfgs()
    fragile = frozenset(payload.fragile)
    lr_flags = payload.lr_live
    blocklist = frozenset(payload.blocklist)
    miner = _make_miner(conf)
    best: List[Optional[Candidate]] = [None]
    collected: List[Candidate] = []
    tallies = {key: 0 for key in TALLY_KEYS}
    ledger_on = _LEDGER.enabled

    def floor() -> int:
        return best[0].benefit if best[0] is not None else 0

    def prune_subtree(size_cap: int, occurrence_bound: int) -> bool:
        return best_possible_benefit(size_cap, occurrence_bound) <= floor()

    def consider(frag) -> None:
        tallies["considered"] += 1
        _progress.heartbeat(
            shard=payload.shard_index,
            considered=tallies["considered"],
            scored=tallies["scored"],
            lattice_nodes=miner.visited_nodes,
            best_benefit=floor(),
        )
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
            # per-embedding legality below costs a reachability sweep
            # each; a deterministic prefix keeps scoring bounded (a
            # sound benefit undercount)
            frag.embeddings = frag.embeddings[:1000]
        method, legal = legal_embeddings(dfgs, frag, fragile)
        if method is None or len(legal) < 2:
            tallies["illegal"] += 1
            return
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
                tallies["lr_infeasible"] += 1
                if ledger_on:
                    _LEDGER.emit("candidate", verdict="lr_infeasible",
                                 **funnel, lr_feasible=len(legal))
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
                _LEDGER.emit("candidate", verdict="order_inconsistent",
                             **funnel)
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
                _LEDGER.emit("candidate", verdict="unprofitable",
                             **funnel, benefit=benefit)
            return
        if blocklist and candidate.fingerprint() in blocklist:
            # Blocklisted by a verify-failure recovery step: the
            # fingerprint is canonical (method + instruction text +
            # origins), so the re-mined round skips exactly the
            # candidate whose extraction failed validation — before
            # it can raise the floor over its runners-up.
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
            _LEDGER.emit("candidate", verdict="scored", **funnel,
                         benefit=candidate.benefit)
        collected.append(candidate)
        if best[0] is None or candidate.sort_key() < best[0].sort_key():
            best[0] = candidate

    def mine_pass(name: str, graphs: Sequence[DFG]) -> None:
        with _TELEMETRY.span(f"pa.mine.{name}"), \
                _LEDGER.context(mine_pass=name):
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
                             graphs=len(dfgs)):
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
    collected.sort(key=lambda c: c.sort_key())
    for attribute in PRUNE_KEYS.values():
        tallies[attribute] = getattr(miner, attribute)
    result = ShardResult(
        shard_index=payload.shard_index,
        candidates=collected,
        lattice_nodes=miner.visited_nodes,
        tallies=tallies,
        deadline_hit=miner.deadline_hit,
        mine_seconds=time.perf_counter() - started,
    )
    _progress.publish(
        "shard.done",
        shard=payload.shard_index,
        seconds=round(result.mine_seconds, 6),
        lattice_nodes=result.lattice_nodes,
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
