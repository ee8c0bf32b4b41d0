"""Embeddings: concrete occurrences of a fragment in the DFG database.

An :class:`Embedding` records *where* a fragment occurs: which DFG, and
which graph node plays each DFS-index role.  Edgar's frequency is defined
over embeddings (paper §3.4): a fragment occurring twice inside one basic
block counts twice — exactly the occurrences PA can outline — as long as
the occurrences do not overlap.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import FrozenSet, List, Sequence, Tuple


@dataclass(frozen=True)
class Embedding:
    """One occurrence of a fragment.

    ``graph`` is the index of the DFG in the mining database; ``nodes``
    maps DFS index -> graph node (position *k* holds the graph node that
    plays DFS role *k*).
    """

    graph: int
    nodes: Tuple[int, ...]

    @cached_property
    def node_set(self) -> FrozenSet[int]:
        """The occurrence's graph nodes, built once per embedding.

        The cache sits in the instance dict, outside the dataclass
        fields, so ``==``, ``hash`` and ``repr`` never see it.
        """
        return frozenset(self.nodes)

    def overlaps(self, other: "Embedding") -> bool:
        """True if the two occurrences share an instruction.

        Only embeddings inside the same DFG can collide; a node can be
        outlined at most once (paper §3.4).
        """
        if self.graph != other.graph:
            return False
        return not self.node_set.isdisjoint(other.node_set)


def dedupe_by_node_set(embeddings: Sequence[Embedding]) -> List[Embedding]:
    """Collapse automorphic embeddings.

    Symmetric fragments embed the same instruction set in several
    role-assignments; for both overlap resolution and extraction only the
    instruction *set* matters, so one representative per (graph, node
    set) suffices.  Keeping them all would blow up the collision graph
    factorially for symmetric fragments.
    """
    seen = set()
    unique: List[Embedding] = []
    for emb in embeddings:
        key = (emb.graph, emb.node_set)
        if key not in seen:
            seen.add(key)
            unique.append(emb)
    return unique
