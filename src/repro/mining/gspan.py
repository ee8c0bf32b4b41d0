"""DgSpan: gSpan for directed graphs (paper §3.3).

The miner arranges all connected subgraphs of the DFG database in the
gSpan search lattice, traverses it depth-first along rightmost-path
extensions, detects duplicates with the minimal-DFS-code canonical form
(:mod:`repro.mining.dfs_code`), and prunes infrequent branches.

DgSpan uses the classical *graph-based* frequency: the number of
database graphs a fragment occurs in.  A fragment appearing twice inside
one basic block therefore counts once — the limitation that motivates
Edgar (:mod:`repro.mining.edgar`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.dfg.graph import DFG

from repro.mining.dfs_code import (
    DFSCode,
    EdgeTuple,
    code_num_nodes,
    edge_sort_key,
    graph_edges_of,
    is_min,
    node_labels_of,
    rightmost_path,
)
from repro.mining.embeddings import Embedding, dedupe_by_node_set
from repro.resilience import governor as _governor
from repro.resilience.faultinject import fault
from repro.telemetry import GLOBAL as _TELEMETRY
from repro.telemetry.events import emit


class _DeadlineReached(Exception):
    """Internal: unwinds the search when the time budget is spent."""


class _MinedGraph:
    """One DFG with interned labels and mixed-direction adjacency."""

    __slots__ = ("nodes", "edges", "adj")

    def __init__(self, node_labels: List[int],
                 edges: List[Tuple[int, int, int]]):
        self.nodes = node_labels
        self.edges = edges
        #: adj[v] = [(other, edge_label, direction_from_v), ...]
        self.adj: List[List[Tuple[int, int, int]]] = [
            [] for __ in node_labels
        ]
        for src, dst, elabel in edges:
            self.adj[src].append((dst, elabel, 0))
            self.adj[dst].append((src, elabel, 1))


class MiningDB:
    """The mining database: interning tables + per-DFG mined graphs."""

    def __init__(self, dfgs: Sequence[DFG]):
        self.dfgs = list(dfgs)
        label_set: Set[str] = set()
        kind_set: Set[str] = set()
        for dfg in self.dfgs:
            label_set.update(dfg.labels)
            kind_set.update(k for (__, ___, k) in dfg.edges)
        self.node_labels = sorted(label_set)
        self.edge_kinds = sorted(kind_set)
        self._label_id = {s: i for i, s in enumerate(self.node_labels)}
        self._kind_id = {s: i for i, s in enumerate(self.edge_kinds)}
        self.graphs: List[_MinedGraph] = []
        for dfg in self.dfgs:
            nodes = [self._label_id[s] for s in dfg.labels]
            edges = [
                (s, d, self._kind_id[k]) for (s, d, k) in sorted(dfg.edges)
            ]
            self.graphs.append(_MinedGraph(nodes, edges))

    def label_str(self, label_id: int) -> str:
        return self.node_labels[label_id]

    def kind_str(self, kind_id: int) -> str:
        return self.edge_kinds[kind_id]


@dataclass
class Fragment:
    """A frequent fragment: its canonical code and all its occurrences.

    ``support`` follows the discovering miner's frequency semantics —
    the number of database graphs for DgSpan, the number of distinct
    (deduplicated) embeddings for Edgar.  The extraction driver
    re-evaluates candidates with the exact non-overlapping count.
    """

    code: DFSCode
    node_labels: List[str]
    edges: List[Tuple[int, int, str]]
    embeddings: List[Embedding]
    support: int

    @property
    def num_nodes(self) -> int:
        return len(self.node_labels)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def __repr__(self) -> str:
        return (
            f"Fragment(nodes={self.num_nodes}, support={self.support}, "
            f"labels={self.node_labels})"
        )


class DgSpan:
    """Directed gSpan with graph-based frequency.

    Parameters
    ----------
    min_support:
        Minimum frequency (miner-specific semantics) for a fragment to
        be reported and extended.
    min_nodes / max_nodes:
        Fragment size window.  Growth stops at *max_nodes* (procedural
        abstraction candidates are small; the window bounds the
        exponential lattice).
    max_embeddings:
        Safety valve against factorial blow-up on highly symmetric
        fragments; branches whose embedding list exceeds the cap are
        truncated (a warning counter is kept in ``truncated_branches``).
    """

    def __init__(
        self,
        min_support: int = 2,
        min_nodes: int = 2,
        max_nodes: int = 12,
        max_embeddings: int = 4000,
    ):
        self.min_support = min_support
        self.min_nodes = min_nodes
        self.max_nodes = max_nodes
        self.max_embeddings = max_embeddings
        self.truncated_branches = 0
        self.visited_nodes = 0  # lattice nodes expanded (for benches)
        #: PA-specific embedding pruning tallies, split by cause (only
        #: Edgar increments them; defined here so the driver's ledger
        #: emission reads them uniformly off either miner).
        self.pruned_never_convex = 0
        self.pruned_cyclic = 0
        #: lattice children and nodes cut by :attr:`prune_illegal`
        self.pruned_illegal = 0
        #: Optional search-driver hook: called with an upper bound on the
        #: subtree's (fragment size, non-overlapping occurrence count);
        #: returning True prunes the subtree.  The PA driver uses it to
        #: cut every branch that cannot beat the current best candidate
        #: (both quantities are antimonotone along lattice edges, so the
        #: prune is exact for the "find the best extraction" query).
        self.prune_subtree = None
        #: Optional legality prune
        #: (:class:`repro.pa.legality.LatticeLegality`): bound to each
        #: mining database, it folds a verdict state along the lattice,
        #: drops dead children before their canonical check and cuts
        #: nodes whose subtree holds nothing extractable.  Exact for the
        #: PA funnels, which score only legal candidates.
        self.prune_illegal = None
        self._legality = None
        #: Optional streaming sink; when set, frequent fragments are
        #: passed here instead of being accumulated in a list, as
        #: ``on_fragment(size, occurrence_bound, embeddings, build)``:
        #: the fragment's node count, its :meth:`_occurrence_bound`
        #: (None without a :attr:`prune_subtree` hook), its embeddings
        #: (deduplicated by node set), and a no-argument callable that
        #: builds the :class:`Fragment`.  A sink that decides on the
        #: first three never pays for building the fragment.
        self.on_fragment = None
        #: Set when the active run governor stopped the search (its
        #: deadline passed or the run was interrupted); the search
        #: unwinds cleanly and partial results remain valid — every
        #: reported fragment was genuinely frequent.
        self.deadline_hit = False
        self._governor = _governor.current()

    # ------------------------------------------------------------------
    # frequency semantics (overridden by Edgar)
    # ------------------------------------------------------------------
    # Both take the node's embeddings deduplicated by node set
    # (:func:`dedupe_by_node_set`, once per lattice node).
    def _is_frequent(self, db: MiningDB, unique: List[Embedding]) -> bool:
        return len({e.graph for e in unique}) >= self.min_support

    def _support(self, db: MiningDB, unique: List[Embedding]) -> int:
        return len({e.graph for e in unique})

    def _filter_embeddings(
        self, db: MiningDB, code: DFSCode, embeddings: List[Embedding]
    ) -> List[Embedding]:
        """Hook for PA-specific embedding pruning (Edgar)."""
        return embeddings

    def _occurrence_bound(
        self, db: MiningDB, code: DFSCode, unique: List[Embedding]
    ) -> int:
        """Sound upper bound on usable (disjoint) occurrences of the
        deduplicated embeddings *unique*.

        Disjoint occurrences of an *n*-node fragment inside one graph
        can never exceed ``graph nodes // n`` — a far tighter bound than
        the raw embedding count when occurrences overlap heavily (the
        giant-unrolled-block case), and still antimonotone because
        descendants only grow *n* and shrink the embedding set.
        """
        size = max(1, code_num_nodes(code))
        per_graph: Dict[int, int] = {}
        for emb in unique:
            per_graph[emb.graph] = per_graph.get(emb.graph, 0) + 1
        return sum(
            min(count, len(db.graphs[gid].nodes) // size)
            for gid, count in per_graph.items()
        )

    # ------------------------------------------------------------------
    def mine(self, dfgs: Sequence[DFG]) -> List[Fragment]:
        """Return all frequent fragments of the database."""
        fault("mine.pass")
        db = MiningDB(dfgs)
        # visited_nodes and truncated_branches accumulate across calls
        # (the funnel runs the shallow and the full pass with one miner
        # instance and reads the totals afterwards)
        self.deadline_hit = False
        self._governor = _governor.current()
        self._legality = (
            None if self.prune_illegal is None
            else self.prune_illegal.bind(db, self.max_nodes)
        )
        results: List[Fragment] = []

        seeds: Dict[EdgeTuple, List[Embedding]] = {}
        for gid, graph in enumerate(db.graphs):
            for src, dst, elabel in graph.edges:
                for a, b, direction in ((src, dst, 0), (dst, src, 1)):
                    tup = (
                        0, 1, graph.nodes[a], direction, elabel,
                        graph.nodes[b],
                    )
                    seeds.setdefault(tup, []).append(
                        Embedding(gid, (a, b))
                    )
        # Exploration order: seeds spanning several graphs first (their
        # candidates are cheap to confirm and raise the PA driver's
        # benefit floor early), then by embedding count.  Single-graph
        # seeds — e.g. the inside of one giant unrolled block, where
        # embeddings overlap heavily and extraction rarely pays — are
        # visited last, under an already-high floor and, when the run
        # has a deadline, only with leftover budget.  Canonical-form
        # deduplication makes the result set independent of sibling
        # order.  Seeds too rare to be frequent, or dead under the
        # legality prune, are dropped first (see
        # :meth:`_frequent_extensions`).
        def seed_order(tup):
            embeddings = seeds[tup]
            graphs = len({e.graph for e in embeddings})
            return (-graphs, -len(embeddings), edge_sort_key(tup))

        visited_before = self.visited_nodes
        truncated_before = self.truncated_branches
        try:
            with _TELEMETRY.span("mining.mine", graphs=len(db.graphs),
                                 seeds=len(seeds),
                                 max_nodes=self.max_nodes):
                states = self._frequent_extensions(seeds, None)
                for tup in sorted(states, key=seed_order):
                    code = (tup,)
                    if is_min(code):
                        self._search(db, code, seeds[tup], results,
                                     states[tup])
        except _DeadlineReached:
            self.deadline_hit = True
            _TELEMETRY.count("mining.deadline_hits")
        self._legality = None
        emit(
            "mine.pass",
            engine=type(self).__name__.lower(),
            graphs=len(db.graphs),
            seeds=len(seeds),
            max_nodes=self.max_nodes,
            lattice_nodes=self.visited_nodes - visited_before,
            truncated_branches=(
                self.truncated_branches - truncated_before
            ),
            deadline_hit=self.deadline_hit,
        )
        return results

    # ------------------------------------------------------------------
    def _search(
        self,
        db: MiningDB,
        code: DFSCode,
        embeddings: List[Embedding],
        results: List[Fragment],
        state: Optional[int] = None,
    ) -> None:
        """Expand one lattice node; *state* is its legality verdict
        state (None when no legality prune is bound)."""
        fault("mine.search")
        if self._governor.should_stop():
            raise _DeadlineReached
        if len(embeddings) > self.max_embeddings:
            # Safety valve against combinatorial blow-up inside large
            # blocks with many repeated labels: keep a deterministic
            # prefix (a sound undercount of frequency and benefit).
            self.truncated_branches += 1
            _TELEMETRY.count("mining.truncated_branches")
            embeddings = embeddings[: self.max_embeddings]
        embeddings = self._filter_embeddings(db, code, embeddings)
        unique = dedupe_by_node_set(embeddings)
        if _TELEMETRY.enabled:
            support_started = time.perf_counter()
            frequent = self._is_frequent(db, unique)
            _TELEMETRY.observe(
                "mining.support_check_seconds",
                time.perf_counter() - support_started,
            )
        else:
            frequent = self._is_frequent(db, unique)
        if not frequent:
            _TELEMETRY.count("mining.infrequent_prunes")
            return
        occurrence_bound = None
        if self.prune_subtree is not None:
            occurrence_bound = self._occurrence_bound(db, code, unique)
            if self.prune_subtree(self.max_nodes, occurrence_bound):
                _TELEMETRY.count("mining.subtree_prunes")
                return
        if self._legality is not None and self._legality.cut(state, unique):
            self.pruned_illegal += 1
            _TELEMETRY.count("mining.legality_prunes")
            return
        self.visited_nodes += 1
        if _TELEMETRY.enabled:
            _TELEMETRY.count("mining.lattice_nodes")
            _TELEMETRY.count(
                "mining.embeddings_enumerated", len(embeddings)
            )
        num_nodes = code_num_nodes(code)
        if num_nodes >= self.min_nodes:
            _TELEMETRY.count("mining.fragments_reported")
            if self.on_fragment is not None:
                self.on_fragment(num_nodes, occurrence_bound, unique,
                                 lambda: self._fragment(db, code, unique))
            else:
                results.append(self._fragment(db, code, unique))
        if num_nodes >= self.max_nodes:
            return

        children = self._extensions(db, code, embeddings)
        states = self._frequent_extensions(children, state)
        for tup in sorted(
            states, key=lambda t: (-len(children[t]), edge_sort_key(t)),
        ):
            child = code + (tup,)
            if is_min(child):
                self._search(db, child, child_embeddings(tup, children[tup]),
                             results, states[tup])

    # ------------------------------------------------------------------
    def _frequent_extensions(
        self, extensions: Dict[EdgeTuple, list], state: Optional[int]
    ) -> Dict[EdgeTuple, Optional[int]]:
        """The extensions worth a canonical check, with their legality
        states (*state* is the parent's; None for seeds).

        gSpan's support-first order, by each miner's own frequency: an
        extension is dropped before its canonical check when it has
        fewer than ``min_support`` raw entries (neither miner's
        frequency can exceed that count) or fails
        :meth:`_may_be_frequent`.  A bound legality prune drops the dead
        children in between, so the hook only sees live ones.  Every
        dropped child would fail :meth:`_is_frequent` or hold nothing
        extractable whether or not its code is minimal, and the
        survivors keep their relative order, so the search is otherwise
        unchanged.
        """
        min_support = self.min_support
        may_be_frequent = self._may_be_frequent
        child_state = None if self._legality is None else self._legality.child
        kept: Dict[EdgeTuple, Optional[int]] = {}
        dead = 0
        for tup, entries in extensions.items():
            if len(entries) < min_support:
                continue
            child = None
            if child_state is not None:
                child = child_state(state, tup)
                if child is None:
                    dead += 1
                    continue
            if may_be_frequent(entries):
                kept[tup] = child
        if dead:
            self.pruned_illegal += dead
            _TELEMETRY.count("mining.legality_prunes", dead)
        if _TELEMETRY.enabled:
            _TELEMETRY.count(
                "mining.support_skips", len(extensions) - dead - len(kept)
            )
            _TELEMETRY.count("mining.canonical_checks", len(kept))
        return kept

    def _may_be_frequent(self, entries: list) -> bool:
        """A necessary condition of :meth:`_is_frequent`, tested on a
        live child's raw entries (at least ``min_support`` of them):
        ``Embedding`` objects for seeds and backward children,
        ``(parent embedding, new node)`` pairs for forward ones.

        A False verdict must hold for every subset of the occurrences
        too, since truncation, :meth:`_filter_embeddings` and
        deduplication only drop some.  DgSpan's frequency is the number
        of distinct graphs, so its test is exact up to those drops.
        """
        if type(entries[0]) is tuple:
            graphs = {emb.graph for emb, __ in entries}
        else:
            graphs = {emb.graph for emb in entries}
        return len(graphs) >= self.min_support

    # ------------------------------------------------------------------
    def _extensions(
        self, db: MiningDB, code: DFSCode, embeddings: List[Embedding]
    ) -> Dict[EdgeTuple, list]:
        """Rightmost-path extensions of *code* over every embedding.

        A backward extension maps to the parent embeddings it closes a
        cycle in; a forward one to ``(parent embedding, new node)``
        pairs, which :func:`child_embeddings` turns into embeddings only
        for the children the search visits.
        """
        extensions: Dict[EdgeTuple, list] = {}
        rm_path = rightmost_path(code)
        rightmost = rm_path[-1]
        rm_set = set(rm_path)
        # The code's edges by DFS index, in graph direction.  Mappings
        # are injective, so an embedding has consumed the graph edge
        # between mapping[a] and mapping[b] exactly when this set holds
        # the DFS edge between a and b with its label and direction.
        used = set(graph_edges_of(code))
        for emb in embeddings:
            graph = db.graphs[emb.graph]
            mapping = emb.nodes
            mapped = emb.node_set
            # backward extensions: rightmost vertex -> rightmost path
            g_rightmost = mapping[rightmost]
            for other, elabel, direction in graph.adj[g_rightmost]:
                if other not in mapped:
                    continue
                back_to = mapping.index(other)
                if back_to == rightmost or back_to not in rm_set:
                    continue
                if (
                    (rightmost, back_to, elabel)
                    if direction == 0
                    else (back_to, rightmost, elabel)
                ) in used:
                    continue
                tup = (
                    rightmost, back_to, graph.nodes[g_rightmost],
                    direction, elabel, graph.nodes[other],
                )
                extensions.setdefault(tup, []).append(emb)
            # forward extensions: rightmost path -> new node
            new_index = len(mapping)
            for dfs_index in rm_path:
                g_node = mapping[dfs_index]
                for other, elabel, direction in graph.adj[g_node]:
                    if other in mapped:
                        continue
                    tup = (
                        dfs_index, new_index, graph.nodes[g_node],
                        direction, elabel, graph.nodes[other],
                    )
                    extensions.setdefault(tup, []).append((emb, other))
        return extensions

    # ------------------------------------------------------------------
    def _fragment(
        self, db: MiningDB, code: DFSCode, unique: List[Embedding]
    ) -> Fragment:
        labels = [db.label_str(lab) for lab in node_labels_of(code)]
        edges = [
            (s, d, db.kind_str(k)) for (s, d, k) in graph_edges_of(code)
        ]
        return Fragment(
            code=code,
            node_labels=labels,
            edges=edges,
            embeddings=unique,
            support=self._support(db, unique),
        )


def child_embeddings(tup: EdgeTuple, entries: list) -> List[Embedding]:
    """The embeddings of the child *tup* from its entries in a
    :meth:`DgSpan._extensions` map."""
    if tup[0] > tup[1]:
        return entries  # backward: the parent embeddings themselves
    return [Embedding(emb.graph, emb.nodes + (node,))
            for emb, node in entries]
