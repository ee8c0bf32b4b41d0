"""Shard-scoped mining: the candidate funnel over one cluster.

A :class:`ShardPayload` is a *self-contained*, content-addressed unit
of mining work: the shard's instruction lists, the per-block legality
facts the funnel needs (lr-liveness on exit, the sp-fragile callees the
shard actually calls), and the mining-relevant config knobs.  Nothing
in it references global DFG indices, block coordinates or symbol names
outside the shard, so

* it pickles across a process boundary unchanged (worker pools), and
* its :meth:`~ShardPayload.digest` is a stable cache key — two shards
  with identical content mine to identical results no matter where (or
  in which round, or in which run) their blocks live.

:func:`mine_shard` runs the same consider-funnel as the serial driver
(floor prune -> legality -> MIS -> order consistency -> score) with a
shard-local benefit floor, and returns a :class:`ShardResult` whose
candidates use *local* graph ids; :func:`revive_candidates` maps them
back onto the round's global DFG database, re-deriving instruction
objects and origins, exactly like checkpoint carryover revival.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.binary.program import BasicBlock
from repro.dfg.builder import build_dfg
from repro.dfg.graph import DFG, FLOW_KINDS
from repro.isa.instructions import Instruction
from repro.isa.operands import LabelRef
from repro.mining.edgar import Edgar, non_overlapping_embeddings
from repro.mining.embeddings import Embedding
from repro.mining.gspan import DgSpan, Fragment
from repro.pa.extract import call_site_feasible, order_consistent_subset
from repro.pa.fragments import Candidate, best_possible_benefit, score
from repro.pa.legality import (
    ExtractionMethod,
    LatticeLegality,
    legal_embeddings,
)
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.telemetry import progress as _progress

import hashlib
import time

#: Version tag of the shard payload/result wire format.  Bump on any
#: change to the funnel, the payload fields or the candidate wire
#: format — it is folded into every cache key, so a bump invalidates
#: all persisted entries instead of silently reviving stale results.
SHARD_SCHEMA = "repro.scale.shard/1"

#: Funnel tallies a shard reports (mirrors the serial driver's skip
#: census; replayed into telemetry by the parent in shard order).
TALLY_KEYS = (
    "considered", "floor", "illegal", "lr_infeasible",
    "order_inconsistent", "unprofitable", "scored",
)


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
    flow_pass: bool

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
            flow_pass=config.flow_pass,
        )


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

    def digest(self) -> str:
        """The content-addressed cache key of this work unit.

        hashlib (not ``hash()``, which is per-process salted) over the
        schema tag, the mining config, and each block's rendered
        instruction text + lr flag, plus the restricted fragile set.
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
            str(conf.flow_pass),
            "\x1e".join(self.fragile),
        ]
        for insns, lr_flag in zip(self.block_insns, self.lr_live):
            parts.append(
                ("L" if lr_flag else "-")
                + "\x1e".join(str(insn) for insn in insns)
            )
        hasher.update("\x1f".join(parts).encode())
        return hasher.hexdigest()


@dataclass
class ShardResult:
    """What one mined shard reports back (wire/cache format).

    ``candidates`` hold *local* graph ids and carry no origins — both
    are re-derived against the live module at revival, which is what
    makes the result position-independent and cacheable.
    """

    shard_index: int
    candidates: List[Dict[str, Any]] = field(default_factory=list)
    lattice_nodes: int = 0
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

    def to_doc(self) -> Dict[str, Any]:
        """The JSON body persisted by the fragment cache."""
        return {
            "candidates": self.candidates,
            "lattice_nodes": self.lattice_nodes,
            "tallies": dict(self.tallies),
        }

    @classmethod
    def from_doc(cls, shard_index: int,
                 doc: Dict[str, Any]) -> "ShardResult":
        return cls(
            shard_index=shard_index,
            candidates=list(doc["candidates"]),
            lattice_nodes=int(doc["lattice_nodes"]),
            tallies={k: int(v) for k, v in doc["tallies"].items()},
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
                  config) -> ShardPayload:
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
    return ShardPayload(
        shard_index=shard.index,
        block_insns=block_insns,
        lr_live=lr_flags,
        fragile=fragile_local,
        config=ShardMiningConfig.from_config(config),
    )


def _make_miner(conf: ShardMiningConfig):
    if conf.miner == "edgar":
        return Edgar(
            min_support=conf.min_support,
            min_nodes=conf.min_nodes,
            max_nodes=conf.max_nodes,
            max_embeddings=conf.max_embeddings,
            pa_pruning=conf.pa_pruning,
            mis_exact_limit=conf.mis_exact_limit,
        )
    if conf.miner == "dgspan":
        return DgSpan(
            min_support=conf.min_support,
            min_nodes=conf.min_nodes,
            max_nodes=conf.max_nodes,
            max_embeddings=conf.max_embeddings,
        )
    raise ValueError(f"unknown miner: {conf.miner!r}")


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


def mine_shard(payload: ShardPayload) -> ShardResult:
    """Run the candidate funnel over one shard, in the calling process.

    The same pipeline as the serial driver's ``collect_candidates`` —
    shallow pre-pass, full pass, flow-projection pass, with the
    consider-funnel streaming fragments through legality, MIS overlap
    resolution, order consistency and the benefit model — except that
    the benefit floor is *shard-local* (starts at zero) and lr/fragile
    facts come from the payload.  Deterministic for fixed payload
    content: no randomness, no global state, stable tie-breaks.

    The active run governor is polled throughout, so a deadline or
    interrupt unwinds cleanly mid-shard; the result is then flagged
    ``deadline_hit`` (still sound, but partial — callers must not
    cache it).
    """
    started = time.perf_counter()
    _progress.publish("shard.start", shard=payload.shard_index,
                      blocks=len(payload.block_insns))
    conf = payload.config
    mined_kinds = frozenset(conf.mined_kinds)
    dfgs = [
        build_dfg(BasicBlock([], list(insns)), origin=("", local),
                  mined_kinds=mined_kinds)
        for local, insns in enumerate(payload.block_insns)
    ]
    fragile = frozenset(payload.fragile)
    lr_flags = payload.lr_live
    miner = _make_miner(conf)
    best: List[Optional[Candidate]] = [None]
    collected: List[Candidate] = []
    tallies = {key: 0 for key in TALLY_KEYS}

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
            # same deterministic-prefix bound as the serial funnel
            frag.embeddings = frag.embeddings[:1000]
        method, legal = legal_embeddings(dfgs, frag, fragile)
        if method is None or len(legal) < 2:
            tallies["illegal"] += 1
            return
        if method is ExtractionMethod.CALL:
            legal = [
                e for e in legal
                if not lr_flags[e.graph]
                and call_site_feasible(dfgs[e.graph], e.nodes)
            ]
            if len(legal) < 2:
                tallies["lr_infeasible"] += 1
                return
        disjoint = non_overlapping_embeddings(
            legal, exact_limit=conf.mis_exact_limit
        )
        kept, union = order_consistent_subset(dfgs, disjoint)
        if len(kept) < 2:
            tallies["order_inconsistent"] += 1
            return
        witness = kept[0]
        insns = [dfgs[witness.graph].insns[n] for n in witness.nodes]
        candidate = score(frag, method, insns, kept, union, origins=())
        if candidate is None:
            tallies["unprofitable"] += 1
            return
        tallies["scored"] += 1
        collected.append(candidate)
        if best[0] is None or candidate.sort_key() < best[0].sort_key():
            best[0] = candidate

    miner.prune_subtree = prune_subtree
    if getattr(miner, "pa_pruning", False):
        # the funnel scores only legal candidates, so subtrees with
        # nothing legally extractable need not be grown
        miner.prune_illegal = LatticeLegality(fragile)
    miner.on_fragment = consider
    try:
        with _TELEMETRY.span("scale.shard.mine",
                             shard=payload.shard_index,
                             graphs=len(dfgs)):
            if miner.max_nodes > 4:
                # shallow pre-pass seeds the shard-local floor cheaply
                saved_max = miner.max_nodes
                miner.max_nodes = 3
                try:
                    miner.mine(dfgs)
                finally:
                    miner.max_nodes = saved_max
            miner.mine(dfgs)
            if conf.flow_pass and FLOW_KINDS != mined_kinds:
                flow_dfgs = [
                    build_dfg(BasicBlock([], list(insns)),
                              origin=("", local), mined_kinds=FLOW_KINDS)
                    for local, insns in enumerate(payload.block_insns)
                ]
                miner.mine(flow_dfgs)
    finally:
        miner.prune_subtree = None
        miner.prune_illegal = None
        miner.on_fragment = None
    collected.sort(key=lambda c: c.sort_key())
    result = ShardResult(
        shard_index=payload.shard_index,
        candidates=[_candidate_to_wire(c) for c in collected],
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
                      wire: Sequence[Dict[str, Any]]) -> List[Candidate]:
    """Map a shard result's candidates onto the global DFG database.

    Local graph ids become global ones through *graph_ids* (the shard's
    member list), instruction objects are re-read from the live DFGs
    via the witness embedding, and origins are re-derived — the same
    revival the checkpoint carryover uses, which is what lets cached
    results apply to a module whose *other* blocks have changed.
    """
    revived: List[Candidate] = []
    for data in wire:
        embeddings = [
            Embedding(graph_ids[local], tuple(nodes))
            for local, nodes in data["embeddings"]
        ]
        witness = embeddings[0]
        insns = [dfgs[witness.graph].insns[n] for n in witness.nodes]
        origins = tuple(sorted({dfgs[e.graph].origin for e in embeddings}))
        frag = data["fragment"]
        fragment = Fragment(
            code=(),
            node_labels=list(frag["labels"]),
            edges=[tuple(e) for e in frag["edges"]],
            embeddings=embeddings,
            support=frag["support"],
        )
        revived.append(
            Candidate(
                fragment=fragment,
                method=ExtractionMethod(data["method"]),
                insns=insns,
                embeddings=embeddings,
                benefit=data["benefit"],
                union_edges={tuple(e) for e in data["union_edges"]},
                origins=origins,
            )
        )
    return revived
