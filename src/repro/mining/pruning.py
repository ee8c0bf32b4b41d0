"""Search-space pruning rules (paper §3.4 and §3.5).

Frequency pruning is built into the miners (an infrequent fragment has
no frequent extension; with node-disjoint embeddings the count is
antimonotone).  This module adds the PA-specific rules:

* :func:`is_convex` — the legality core: extracting an embedding must
  not create a cyclic dependency between the outlined procedure and the
  remaining block (paper Fig. 9).  An embedding is extractable only if
  no dependence path leaves the fragment and re-enters it.
* :func:`is_permanently_illegal` — a *sound* branch prune: when the
  re-entering path runs through a node that can never become part of any
  mined fragment (it has no mined edges at all), every extension of the
  embedding stays non-convex and the embedding can be dropped from the
  search.
* :func:`successor_closures` — per-node dependence-successor closures,
  the size bound the legality prune (:mod:`repro.pa.legality`) puts
  on the cross-jump occurrences an embedding can grow into.
"""

from __future__ import annotations

from typing import FrozenSet, Iterable, List, Set

from repro.dfg.graph import DFG


def _dep_adjacency(dfg: DFG):
    """Cached (succ, pred) adjacency of the full dependence graph.

    Convexity is queried once per embedding per reported fragment —
    rebuilding dictionaries on every call dominated the whole mining
    round on dense blocks before this cache existed.
    """
    cached = getattr(dfg, "_dep_adjacency_cache", None)
    if cached is None:
        succ = [[] for __ in range(dfg.num_nodes)]
        pred = [[] for __ in range(dfg.num_nodes)]
        for s, d, __k in dfg.dep_edges:
            succ[s].append(d)
            pred[d].append(s)
        cached = (succ, pred)
        dfg._dep_adjacency_cache = cached
    return cached


def _forward_reach(dfg: DFG, start: Set[int], limit: int = None) -> Set[int]:
    """Nodes reachable from *start* in the full dependence graph.

    *limit* bounds the walk to indices ``<= limit`` — dependence edges
    only run forward, so for between-ness queries nothing past the
    fragment's last node can ever lead back into it.
    """
    succ, __ = _dep_adjacency(dfg)
    reached: Set[int] = set()
    stack = list(start)
    while stack:
        node = stack.pop()
        for nxt in succ[node]:
            if nxt not in reached and (limit is None or nxt <= limit):
                reached.add(nxt)
                stack.append(nxt)
    return reached


def _backward_reach(dfg: DFG, start: Set[int], limit: int = None) -> Set[int]:
    __, pred = _dep_adjacency(dfg)
    reached: Set[int] = set()
    stack = list(start)
    while stack:
        node = stack.pop()
        for prv in pred[node]:
            if prv not in reached and (limit is None or prv >= limit):
                reached.add(prv)
                stack.append(prv)
    return reached


def between_nodes(dfg: DFG, nodes: Iterable[int]) -> FrozenSet[int]:
    """Non-fragment nodes on a dependence path fragment -> x -> fragment.

    Extraction contracts the fragment to a single call site; each such
    *x* would then both follow and precede the call — the cycle of paper
    Fig. 9(b).  The walk is bounded to the fragment's index window:
    edges only run forward, so paths cannot leave the window and return.

    Cached per DFG by node set: the two pruning rules ask about the same
    embedding in turn, the same node set recurs across the codes of a
    mining pass and across passes over one DFG list, and legality asks
    again.  DFGs are rebuilt every round, so a cache lives one round.
    """
    node_set = frozenset(nodes)
    cache = getattr(dfg, "_between_cache", None)
    if cache is None:
        cache = dfg._between_cache = {}
    between = cache.get(node_set)
    if between is None:
        low, high = min(node_set), max(node_set)
        forward = _forward_reach(dfg, node_set, limit=high)
        backward = _backward_reach(dfg, node_set, limit=low)
        between = frozenset((forward & backward) - node_set)
        cache[node_set] = between
    return between


def is_convex(dfg: DFG, nodes: Iterable[int]) -> bool:
    """True if the node set can be contracted without creating a cycle."""
    return not between_nodes(dfg, nodes)


def unminable_nodes(dfg: DFG) -> FrozenSet[int]:
    """Nodes isolated in the mined edge set (cached per DFG).

    Such nodes can never join any mined fragment, so a dependence path
    through one of them permanently blocks convexity.  When the set is
    empty — the common case on densely connected graphs — the expensive
    permanence check can be skipped wholesale.
    """
    cached = getattr(dfg, "_unminable_cache", None)
    if cached is None:
        minable: Set[int] = set()
        for s, d, __ in dfg.edges:
            minable.add(s)
            minable.add(d)
        cached = frozenset(range(dfg.num_nodes)) - minable
        dfg._unminable_cache = cached
    return cached


def never_convex_within(dfg: DFG, nodes: Iterable[int],
                        max_nodes: int) -> bool:
    """True if no superset of *nodes* with at most *max_nodes* nodes can
    be convex.

    ``between(F') ⊇ between(F) - F'`` for every ``F' ⊇ F``, so a convex
    superset must swallow the whole between set:
    ``|F'| >= |F| + |between(F)|``.  When that already exceeds the size
    cap, the embedding can never be extracted (neither by call — which
    needs convexity — nor by cross-jump — which needs the even stronger
    successor closure) and is dead weight in the search.

    The check is free for "local" fragments: ``between`` fits inside the
    fragment's index window, so when the window itself is within budget
    nothing needs computing.
    """
    node_set = frozenset(nodes)
    headroom = max_nodes - len(node_set)
    if headroom < 0:
        return True
    span_slack = (max(node_set) - min(node_set) + 1) - len(node_set)
    if span_slack <= headroom:
        return False  # between ⊆ window gap ⊆ headroom: can't prune
    return len(between_nodes(dfg, node_set)) > headroom


def is_permanently_illegal(dfg: DFG, nodes: Iterable[int]) -> bool:
    """True if no extension of this embedding can ever become convex.

    Conservative: only claims permanence when a cycle-causing node is
    isolated in the *mined* edge set, because the miner can only ever
    grow fragments along mined edges.
    """
    unminable = unminable_nodes(dfg)
    if not unminable:
        return False
    culprits = between_nodes(dfg, nodes)
    return bool(culprits & unminable)


try:
    popcount = int.bit_count
except AttributeError:  # Python < 3.10
    def popcount(mask: int) -> int:
        """The number of set bits of a non-negative int."""
        return bin(mask).count("1")


def successor_closures(dfg: DFG, cap: int) -> List[int]:
    """Per node *v*: the bitmask of *v* and every node that depends on
    it, directly or transitively, in the full dependence graph; 0 when
    that set holds more than *cap* nodes.

    A successor-closed superset of a node set must swallow every one of
    these closures, so a closure over the cap rules out every closed
    superset within it.  Cached per DFG and cap, like
    :func:`between_nodes`.
    """
    cache = getattr(dfg, "_closure_cache", None)
    if cache is None:
        cache = dfg._closure_cache = {}
    masks = cache.get(cap)
    if masks is None:
        succ, __ = _dep_adjacency(dfg)
        masks = [0] * dfg.num_nodes
        # dependence edges only run forward: successors come first
        for node in range(dfg.num_nodes - 1, -1, -1):
            mask = 1 << node
            for nxt in succ[node]:
                closure = masks[nxt]
                if not closure:
                    mask = 0
                    break
                mask |= closure
            if mask and popcount(mask) > cap:
                mask = 0
            masks[node] = mask
        cache[cap] = masks
    return masks
