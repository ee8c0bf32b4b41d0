"""Collision graphs over the embeddings of one fragment (paper §3.4).

Nodes are embeddings; an edge connects two embeddings that share at
least one instruction of the same DFG.  Only one member of each such
pair can be outlined, so the usable frequency of a fragment is the size
of a maximum independent set of this graph (equivalently, a maximum
clique of its complement — the formulation of Kumlander's algorithm the
paper adopts).
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from repro.mining.embeddings import Embedding
from repro.telemetry import GLOBAL as _TELEMETRY


def build_collision_graph(
    embeddings: Sequence[Embedding],
) -> List[List[int]]:
    """Adjacency lists of the collision graph.

    Index *i* of the result corresponds to ``embeddings[i]``.  Embeddings
    are first grouped by DFG — occurrences in different graphs can never
    collide — so construction is quadratic only within each graph.
    """
    adjacency: List[List[int]] = [[] for __ in embeddings]
    by_graph: Dict[int, List[int]] = {}
    for index, emb in enumerate(embeddings):
        by_graph.setdefault(emb.graph, []).append(index)
    for indices in by_graph.values():
        for a_pos, i in enumerate(indices):
            set_i = embeddings[i].node_set
            for j in indices[a_pos + 1:]:
                if not set_i.isdisjoint(embeddings[j].node_set):
                    adjacency[i].append(j)
                    adjacency[j].append(i)
    if _TELEMETRY.enabled and embeddings:
        _TELEMETRY.observe("collision.graph_size", len(embeddings))
        _TELEMETRY.observe(
            "collision.graph_edges",
            sum(len(neighbors) for neighbors in adjacency) // 2,
        )
    return adjacency


def connected_components(adjacency: List[List[int]]) -> List[List[int]]:
    """Connected components of an adjacency-list graph."""
    n = len(adjacency)
    seen = [False] * n
    components: List[List[int]] = []
    for start in range(n):
        if seen[start]:
            continue
        stack = [start]
        seen[start] = True
        component = []
        while stack:
            node = stack.pop()
            component.append(node)
            for neighbor in adjacency[node]:
                if not seen[neighbor]:
                    seen[neighbor] = True
                    stack.append(neighbor)
        components.append(sorted(component))
    return components
