"""The DFG data structure used by the miner.

A deliberately small, index-based directed multigraph: node *i* is the
*i*-th instruction of the originating basic block, so the original
program order is always recoverable from the node numbering — a property
both the collision detection and the extraction phase rely on.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import FrozenSet, Iterable, List, Optional, Set, Tuple

import networkx as nx

from repro.isa.instructions import Instruction

#: Edge kinds.  ``d``: register read-after-write (true data flow),
#: ``m``: memory ordering, ``f``: flag flow, ``a``: register/flag
#: anti-dependence (write-after-read), ``o``: output dependence
#: (write-after-write).
EDGE_KINDS = ("d", "m", "f", "a", "o")

#: The default edge kinds visible to the subgraph miner: the full
#: dependence graph.  The paper's Fig. 9 legality check is performed on
#: the mined DFG itself, which is only sound when that graph carries
#: *all* dependencies — so anti- ("a") and output- ("o") dependencies
#: are part of the mined graph, not just the legality overlay.  Mining
#: on pure data flow ({"d", "m", "f"}) is available as an ablation.
MINED_KINDS = frozenset({"d", "m", "f", "a", "o"})

#: Ablation: pure data-flow edges only.
FLOW_KINDS = frozenset({"d", "m", "f"})

Edge = Tuple[int, int, str]


@dataclass
class DFG:
    """Dependence graph of one basic block.

    ``edges`` is the mined (matched) edge set; ``dep_edges`` the full
    constraint set used for legality.  ``edges`` is always a subset of
    ``dep_edges``.
    """

    labels: List[str]
    insns: List[Instruction]
    edges: Set[Edge]
    dep_edges: Set[Edge]
    origin: Tuple[str, int] = ("?", -1)

    #: lazily built adjacency caches
    _succ: Optional[List[List[Tuple[int, str]]]] = field(
        default=None, repr=False, compare=False
    )
    _pred: Optional[List[List[Tuple[int, str]]]] = field(
        default=None, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if len(self.labels) != len(self.insns):
            raise ValueError("labels and insns must align")
        for src, dst, kind in self.dep_edges:
            if not (0 <= src < len(self.labels) and 0 <= dst < len(self.labels)):
                raise ValueError(f"edge out of range: {(src, dst, kind)}")
            if src >= dst:
                raise ValueError(
                    f"dependence edge against program order: {(src, dst, kind)}"
                )
        if not self.edges <= self.dep_edges:
            raise ValueError("mined edges must be a subset of dep edges")

    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self.labels)

    def _build_adjacency(self) -> None:
        succ: List[List[Tuple[int, str]]] = [[] for __ in self.labels]
        pred: List[List[Tuple[int, str]]] = [[] for __ in self.labels]
        for src, dst, kind in sorted(self.edges):
            succ[src].append((dst, kind))
            pred[dst].append((src, kind))
        self._succ, self._pred = succ, pred

    def successors(self, node: int) -> List[Tuple[int, str]]:
        """Outgoing mined edges of *node* as ``(dst, kind)`` pairs."""
        if self._succ is None:
            self._build_adjacency()
        return self._succ[node]

    def predecessors(self, node: int) -> List[Tuple[int, str]]:
        """Incoming mined edges of *node* as ``(src, kind)`` pairs."""
        if self._pred is None:
            self._build_adjacency()
        return self._pred[node]

    def induced_dep_edges(self, nodes: Iterable[int]) -> Set[Edge]:
        """Full constraint edges between the given nodes."""
        node_set = set(nodes)
        return {
            (s, d, k)
            for (s, d, k) in self.dep_edges
            if s in node_set and d in node_set
        }

    def dep_successors(self, node: int) -> Set[int]:
        """Direct successors in the full constraint graph."""
        return {d for (s, d, __) in self.dep_edges if s == node}

    def dep_predecessors(self, node: int) -> Set[int]:
        return {s for (s, d, __) in self.dep_edges if d == node}

    # ------------------------------------------------------------------
    def in_degree(self, node: int, kinds: FrozenSet[str] = MINED_KINDS) -> int:
        return sum(1 for (s, d, k) in self.edges if d == node and k in kinds)

    def out_degree(self, node: int, kinds: FrozenSet[str] = MINED_KINDS) -> int:
        return sum(1 for (s, d, k) in self.edges if s == node and k in kinds)

    # ------------------------------------------------------------------
    def to_networkx(self, full: bool = False) -> "nx.MultiDiGraph":
        """Export to networkx (for tests, visualization, assertions)."""
        graph = nx.MultiDiGraph()
        for i, label in enumerate(self.labels):
            graph.add_node(i, label=label)
        for src, dst, kind in (self.dep_edges if full else self.edges):
            graph.add_edge(src, dst, kind=kind)
        return graph

    def __repr__(self) -> str:
        return (
            f"DFG(origin={self.origin}, nodes={self.num_nodes}, "
            f"edges={len(self.edges)}/{len(self.dep_edges)})"
        )
