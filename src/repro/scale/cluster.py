"""Pre-clustering: partition block DFGs into independent shards.

Every fragment the miners report is *connected* (gSpan grows fragments
edge by edge along the DFS code), so any fragment of two or more nodes
contains at least one edge, and every embedding of it places that edge
inside its host block's DFG.  Two blocks can therefore share a frequent
fragment only if their DFGs share at least one labelled edge signature

    (source canonical label, dependence kind, target canonical label).

Connected components over shared edge signatures are consequently a
*sound* partition of the mining database: all embeddings of any
multi-node fragment lie inside a single component, so each component
("shard") can be mined independently — smaller lattices, parallel
expansion, and content-addressed reuse — without losing a candidate.

(Single-node fragments *could* span components, but they can never
become candidates: ``call_benefit(1, n) < 0`` and
``crossjump_benefit(1, n) = 0`` for every occurrence count, so the
driver's profitability gate discards them regardless of support.)

Shard identity is deterministic: shards are ordered by their smallest
global DFG index and carry their member indices in ascending order, so
the clustering — and everything downstream keyed on it — is a pure
function of the module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Sequence, Tuple

from repro.dfg.graph import DFG

#: One labelled edge signature: (source label, kind, target label).
EdgeSignature = Tuple[str, str, str]


def edge_signatures(dfg: DFG) -> FrozenSet[EdgeSignature]:
    """The labelled edge signatures of one block DFG (mined edges only)."""
    return frozenset(
        (dfg.labels[src], kind, dfg.labels[dst])
        for (src, dst, kind) in dfg.edges
    )


@dataclass(frozen=True)
class Shard:
    """One independent cluster of the mining database.

    ``graph_ids`` are ascending indices into the round's global DFG
    list; ``index`` is the shard's position in the deterministic shard
    order (ascending smallest member index).
    """

    index: int
    graph_ids: Tuple[int, ...]

    @property
    def num_graphs(self) -> int:
        return len(self.graph_ids)

    def num_nodes(self, dfgs: Sequence[DFG]) -> int:
        """Total instruction count of the shard (scheduling weight)."""
        return sum(dfgs[g].num_nodes for g in self.graph_ids)


class _UnionFind:
    __slots__ = ("parent",)

    def __init__(self, size: int) -> None:
        self.parent = list(range(size))

    def find(self, x: int) -> int:
        parent = self.parent
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            # smaller root wins, keeping representatives deterministic
            if rb < ra:
                ra, rb = rb, ra
            self.parent[rb] = ra


def cluster_dfgs(dfgs: Sequence[DFG]) -> List[Shard]:
    """Partition *dfgs* into independent shards (see module docstring).

    Blocks whose DFGs share no labelled edge signature with any other
    block become singleton shards — they still need mining (Edgar's
    frequency counts disjoint occurrences *within* one block), but
    their lattice is private.
    """
    uf = _UnionFind(len(dfgs))
    first_with: Dict[EdgeSignature, int] = {}
    for gid, dfg in enumerate(dfgs):
        for signature in edge_signatures(dfg):
            anchor = first_with.setdefault(signature, gid)
            if anchor != gid:
                uf.union(anchor, gid)
    members: Dict[int, List[int]] = {}
    for gid in range(len(dfgs)):
        members.setdefault(uf.find(gid), []).append(gid)
    shards = []
    for index, root in enumerate(sorted(members)):
        shards.append(Shard(index=index, graph_ids=tuple(members[root])))
    return shards
