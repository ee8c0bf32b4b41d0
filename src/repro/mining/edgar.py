"""Edgar: the embedding-based graph miner (paper §3.4, §3.5).

Edgar extends DgSpan in three ways:

1. **Embedding-based frequency** — a fragment is frequent when it has at
   least ``min_support`` *non-overlapping* occurrences, even inside a
   single basic block.  Non-overlap is decided via a maximum independent
   set of the collision graph; the count is antimonotone because
   disjoint occurrences of a child project onto disjoint occurrences of
   its parent, so frequency pruning stays sound.
2. **Overlap resolution** — reported fragments carry their deduplicated
   embedding list; :func:`non_overlapping_embeddings` selects a maximum
   disjoint subset (Kumlander-style exact MIS, :mod:`repro.mining.mis`).
3. **PA-specific pruning** — embeddings that can never become
   extractable (the Fig. 9 cyclic-dependency case, made permanent by an
   unminable culprit node) are dropped from the search.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from repro.dfg.graph import DFG

from repro.mining.collision import build_collision_graph
from repro.mining.dfs_code import DFSCode
from repro.mining.embeddings import Embedding, dedupe_by_node_set
from repro.mining.gspan import DgSpan, MiningDB
from repro.mining.mis import max_independent_set
from repro.mining.pruning import is_permanently_illegal, never_convex_within
from repro.resilience.faultinject import fault
from repro.telemetry import GLOBAL as _TELEMETRY


#: Collision-graph construction is quadratic per graph; beyond this many
#: occurrences in a single DFG the candidate is truncated (a sound
#: undercount — extraction simply uses fewer occurrences).
MAX_PER_GRAPH = 400


def non_overlapping_embeddings(
    embeddings: Sequence[Embedding], exact_limit: int = 60,
    stats: Optional[Dict[str, Any]] = None,
) -> List[Embedding]:
    """A maximum subset of pairwise node-disjoint embeddings.

    *stats*, when given, is filled with the overlap resolution's
    provenance: the collision graph (node count, edge count, adjacency
    lists), the chosen indices, and the MIS solver's decision census.
    """
    unique = dedupe_by_node_set(embeddings)
    per_graph: dict = {}
    capped = []
    for emb in unique:
        count = per_graph.get(emb.graph, 0)
        if count >= MAX_PER_GRAPH:
            continue
        per_graph[emb.graph] = count + 1
        capped.append(emb)
    if _TELEMETRY.enabled:
        _TELEMETRY.count("mis.overlap_resolutions")
        _TELEMETRY.count("mis.capped_embeddings", len(unique) - len(capped))
    adjacency = build_collision_graph(capped)
    chosen = max_independent_set(adjacency, exact_limit=exact_limit,
                                 stats=stats)
    if stats is not None:
        stats["edges"] = sum(len(n) for n in adjacency) // 2
        stats["adjacency"] = adjacency
        stats["chosen_indices"] = list(chosen)
    return [capped[i] for i in chosen]


class Edgar(DgSpan):
    """Embedding-based DgSpan with MIS overlap resolution + PA pruning."""

    def __init__(
        self,
        min_support: int = 2,
        min_nodes: int = 2,
        max_nodes: int = 12,
        max_embeddings: int = 4000,
        pa_pruning: bool = True,
        mis_exact_limit: int = 60,
    ):
        super().__init__(
            min_support=min_support,
            min_nodes=min_nodes,
            max_nodes=max_nodes,
            max_embeddings=max_embeddings,
        )
        self.pa_pruning = pa_pruning
        self.mis_exact_limit = mis_exact_limit

    # ------------------------------------------------------------------
    def _filter_embeddings(
        self, db: MiningDB, code: DFSCode, embeddings: List[Embedding]
    ) -> List[Embedding]:
        if not self.pa_pruning:
            return embeddings
        fault("mine.filter")
        kept: List[Embedding] = []
        never_convex = cyclic = 0
        for emb in embeddings:
            node_set = emb.node_set
            if never_convex_within(
                db.dfgs[emb.graph], node_set, self.max_nodes
            ):
                never_convex += 1
                continue
            if is_permanently_illegal(db.dfgs[emb.graph], node_set):
                cyclic += 1
                continue
            kept.append(emb)
        if never_convex or cyclic:
            # split tallies feed the decision ledger's per-round prune
            # record (never-convex vs the Fig. 9 cyclic-dependency case)
            self.pruned_never_convex += never_convex
            self.pruned_cyclic += cyclic
            _TELEMETRY.count(
                "mining.pa_pruned_embeddings", never_convex + cyclic
            )
        return kept

    # ------------------------------------------------------------------
    def _is_frequent(self, db: MiningDB, unique: List[Embedding]) -> bool:
        """At least ``min_support`` pairwise disjoint occurrences?

        Cheap cases first: occurrences in *k* distinct graphs are always
        pairwise disjoint, and within one graph a disjoint pair is found
        by scanning; the exact MIS is only needed for larger supports.
        """
        if len(unique) < self.min_support:
            return False
        graphs = {e.graph for e in unique}
        if len(graphs) >= self.min_support:
            return True
        if self.min_support == 2:
            by_graph: dict = {}
            for emb in unique:
                by_graph.setdefault(emb.graph, []).append(emb)
            for members in by_graph.values():
                # bounded scan: beyond a few hundred occurrences of one
                # fragment inside one block, a disjoint pair among the
                # first members decides the test in practice
                scan = members[:200]
                for i, a in enumerate(scan):
                    for b in scan[i + 1:]:
                        if a.node_set.isdisjoint(b.node_set):
                            return True
            return False
        return len(self._disjoint(unique)) >= self.min_support

    def _support(self, db: MiningDB, unique: List[Embedding]) -> int:
        return len(unique)

    def _may_be_frequent(self, entries: list) -> bool:
        """Could the entries hold two node-disjoint occurrences?

        Occurrences in two graphs are disjoint.  Occurrences in one
        graph that all share a node are not, and neither are any subset
        of them, so with ``min_support`` of at least 2 such a child
        fails :meth:`_is_frequent` after truncation, the PA filter and
        deduplication alike.  The shared nodes are a running
        intersection that stops as soon as it is empty.
        """
        if self.min_support < 2:
            return True
        first = entries[0]
        if type(first) is tuple:  # forward: (parent embedding, new node)
            graph = first[0].graph
            common = set(first[0].node_set)
            common.add(first[1])
            for emb, node in entries:
                if emb.graph != graph:
                    return True
                shared = node in common
                common &= emb.node_set
                if shared:
                    common.add(node)
                elif not common:
                    return True
            return False
        graph = first.graph
        common = first.node_set
        for emb in entries:
            if emb.graph != graph:
                return True
            common = common & emb.node_set
            if not common:
                return True
        return False

    def _disjoint(self, unique: List[Embedding]) -> List[Embedding]:
        adjacency = build_collision_graph(unique)
        chosen = max_independent_set(adjacency, exact_limit=self.mis_exact_limit)
        return [unique[i] for i in chosen]
