"""DFS codes: gSpan's canonical form, extended to directed graphs.

A DFS code is the sorted list of edge tuples in the order a depth-first
traversal attaches them to the growing subgraph (paper §3.3, Fig. 7).
Each tuple is

    ``(i, j, label_i, direction, edge_label, label_j)``

where *i*, *j* are DFS discovery indices and *direction* is 0 when the
underlying directed edge runs ``i -> j`` and 1 when it runs ``j -> i`` —
"the direction of an edge can simply be expressed by an additional
flag" (paper §3.3).  Codes are compared with gSpan's neighborhood-
restricted lexicographic order; the *minimal* code of a graph is its
canonical form, and the traversal of the search lattice can stop as soon
as a non-minimal code is reached.
"""

from __future__ import annotations

from functools import cmp_to_key
from typing import Dict, List, Sequence, Tuple

#: (i, j, label_i, direction, edge_label, label_j) — labels are interned ints.
EdgeTuple = Tuple[int, int, int, int, int, int]
DFSCode = Tuple[EdgeTuple, ...]


def is_forward(edge: EdgeTuple) -> bool:
    """Forward edges discover a new node: ``i < j``."""
    return edge[0] < edge[1]


def compare_edges(e1: EdgeTuple, e2: EdgeTuple) -> int:
    """gSpan's DFS lexicographic edge order (directed variant).

    Returns a negative value when ``e1`` sorts before ``e2``, positive
    when after, and 0 when equal.
    """
    i1, j1 = e1[0], e1[1]
    i2, j2 = e2[0], e2[1]
    f1, f2 = i1 < j1, i2 < j2
    if f1 and f2:
        if j1 != j2:
            return -1 if j1 < j2 else 1
        if i1 != i2:
            # For equal targets the *deeper* source sorts first.
            return -1 if i1 > i2 else 1
    elif not f1 and not f2:
        if i1 != i2:
            return -1 if i1 < i2 else 1
        if j1 != j2:
            return -1 if j1 < j2 else 1
    elif f1:  # e1 forward, e2 backward
        return -1 if j1 <= i2 else 1
    else:  # e1 backward, e2 forward
        return -1 if i1 < j2 else 1
    # identical positions: fall back to the label part
    l1, l2 = e1[2:], e2[2:]
    if l1 == l2:
        return 0
    return -1 if l1 < l2 else 1


def compare_codes(c1: Sequence[EdgeTuple], c2: Sequence[EdgeTuple]) -> int:
    """Lexicographic comparison of whole codes under :func:`compare_edges`."""
    for e1, e2 in zip(c1, c2):
        cmp = compare_edges(e1, e2)
        if cmp:
            return cmp
    if len(c1) == len(c2):
        return 0
    return -1 if len(c1) < len(c2) else 1


edge_sort_key = cmp_to_key(compare_edges)


def rightmost_path(code: Sequence[EdgeTuple]) -> List[int]:
    """DFS indices on the rightmost path, root first.

    The rightmost path is the chain of forward edges leading to the
    highest-numbered (rightmost) vertex.  The miner derives it once per
    lattice node; :func:`is_min` grows its own one edge at a time.
    """
    if not code:
        return []
    current = 0
    for edge in code:
        if edge[1] > current:
            current = edge[1]
        if edge[0] > current:
            current = edge[0]
    path = [current]
    for k in range(len(code) - 1, -1, -1):
        edge = code[k]
        if edge[0] < edge[1] and edge[1] == current:
            current = edge[0]
            path.append(current)
    path.reverse()
    return path


def code_num_nodes(code: Sequence[EdgeTuple]) -> int:
    best = -1
    for edge in code:
        if edge[1] > best:
            best = edge[1]
        if edge[0] > best:
            best = edge[0]
    return best + 1


def node_labels_of(code: Sequence[EdgeTuple]) -> List[int]:
    """Recover node labels (by DFS index) from a code."""
    labels: Dict[int, int] = {}
    for i, j, li, __, ___, lj in code:
        labels.setdefault(i, li)
        labels.setdefault(j, lj)
    return [labels[i] for i in range(len(labels))]


def graph_edges_of(code: Sequence[EdgeTuple]) -> List[Tuple[int, int, int]]:
    """Edges of the code's graph in *graph* direction: (src, dst, label)."""
    edges = []
    for i, j, __, direction, elabel, ___ in code:
        if direction == 0:
            edges.append((i, j, elabel))
        else:
            edges.append((j, i, elabel))
    return edges


class _CodeGraph:
    """Adjacency view of the graph a DFS code denotes."""

    def __init__(self, code: Sequence[EdgeTuple]):
        self.labels = node_labels_of(code)
        n = len(self.labels)
        #: adj[v] = list of (other, elabel, direction_from_v)
        self.adj: List[List[Tuple[int, int, int]]] = [[] for __ in range(n)]
        self.edges: List[Tuple[int, int, int]] = graph_edges_of(code)
        for src, dst, elabel in self.edges:
            self.adj[src].append((dst, elabel, 0))
            self.adj[dst].append((src, elabel, 1))


def _min_extensions(graph: _CodeGraph, code: List[EdgeTuple],
                    mappings: List[Tuple[int, ...]]):
    """All rightmost extensions of *code* over its own graph.

    Returns ``{edge_tuple: [extended mappings]}`` following gSpan's
    rightmost-extension rule: backward edges leave the rightmost vertex
    toward the rightmost path; forward edges leave rightmost-path
    vertices toward undiscovered nodes.
    """
    extensions: Dict[EdgeTuple, List[Tuple[int, ...]]] = {}
    rm_path = rightmost_path(code)
    rightmost = rm_path[-1] if rm_path else 0
    for mapping in mappings:
        mapped = set(mapping)
        used = _used_edges(code, mapping)
        if not code:
            # seed: every edge in both orientations
            for src, dst, elabel in graph.edges:
                for a, b, direction in ((src, dst, 0), (dst, src, 1)):
                    tup = (0, 1, graph.labels[a], direction, elabel,
                           graph.labels[b])
                    extensions.setdefault(tup, []).append((a, b))
            continue
        # backward extensions from the rightmost vertex
        g_rightmost = mapping[rightmost]
        for other, elabel, direction in graph.adj[g_rightmost]:
            if other not in mapped:
                continue
            back_to = mapping.index(other)
            if back_to == rightmost or back_to not in rm_path:
                continue
            gedge = (
                (g_rightmost, other, elabel)
                if direction == 0
                else (other, g_rightmost, elabel)
            )
            if gedge in used:
                continue
            tup = (rightmost, back_to, graph.labels[g_rightmost], direction,
                   elabel, graph.labels[other])
            extensions.setdefault(tup, []).append(mapping)
        # forward extensions from rightmost-path vertices
        new_index = len(mapping)
        for dfs_index in rm_path:
            g_node = mapping[dfs_index]
            for other, elabel, direction in graph.adj[g_node]:
                if other in mapped:
                    continue
                tup = (dfs_index, new_index, graph.labels[g_node], direction,
                       elabel, graph.labels[other])
                extensions.setdefault(tup, []).append(mapping + (other,))
    return extensions


def _used_edges(code: Sequence[EdgeTuple], mapping: Tuple[int, ...]):
    """Graph edges already consumed by *mapping* of *code*."""
    used = set()
    for i, j, __, direction, elabel, ___ in code:
        if direction == 0:
            used.add((mapping[i], mapping[j], elabel))
        else:
            used.add((mapping[j], mapping[i], elabel))
    return used


def min_dfs_code(code: Sequence[EdgeTuple]) -> DFSCode:
    """The canonical (minimal) DFS code of the graph *code* denotes.

    Built greedily: at every step, the smallest extension over all
    embeddings of the current minimal prefix is appended — the gSpan
    construction of the canonical form.
    """
    graph = _CodeGraph(code)
    built: List[EdgeTuple] = []
    mappings: List[Tuple[int, ...]] = [()]
    for __ in range(len(code)):
        extensions = _min_extensions(graph, built, mappings)
        best = min(extensions, key=edge_sort_key)
        mappings = extensions[best]
        built.append(best)
    return tuple(built)


def is_min(code: Sequence[EdgeTuple]) -> bool:
    """True if *code* is the canonical form of its own graph.

    Incremental and early-aborting: at each step, candidate extensions
    are compared against the expected edge tuple one by one; finding any
    smaller tuple disproves minimality immediately, and only embeddings
    matching the expected tuple are carried forward.  This avoids
    materializing the full extension map the way :func:`min_dfs_code`
    must.

    Step 0 is decided from the code tuples alone: every code edge, seen
    from either end, is a one-edge code, and one whose labels sort below
    ``code[0]``'s disproves minimality before any graph is built.  Later
    steps keep the rightmost path and the used edges of the built prefix
    up to date one edge at a time.  The used edges are DFS-index edges
    ``(src, dst, label)`` in graph direction, shared by every mapping:
    mappings are injective, so the graph edge between ``mapping[a]`` and
    ``mapping[b]`` is consumed exactly when the prefix holds the DFS
    edge between *a* and *b* with that label and direction.
    """
    if not code:
        return True
    e_label4 = code[0][2:]
    num_nodes = 0
    mappings: List[Tuple[int, ...]] = []
    for i, j, li, d, el, lj in code:
        forward = (li, d, el, lj)
        backward = (lj, 1 - d, el, li)
        if forward < e_label4 or backward < e_label4:
            return False
        if forward == e_label4:
            mappings.append((i, j))
        if backward == e_label4:
            mappings.append((j, i))
        if i >= num_nodes:
            num_nodes = i + 1
        if j >= num_nodes:
            num_nodes = j + 1
    labels = [0] * num_nodes
    # adj[v] = list of (other, elabel, direction_from_v)
    adj: List[List[Tuple[int, int, int]]] = [[] for __ in range(num_nodes)]
    for i, j, li, d, el, lj in code:
        labels[i] = li
        labels[j] = lj
        adj[i].append((j, el, d))
        adj[j].append((i, el, 1 - d))
    # paths[v] = rightmost path ending at DFS index v, root first
    paths: List[Tuple[int, ...]] = [()] * num_nodes
    paths[0] = (0,)
    rm_path = paths[0]
    used = set()
    for k in range(1, len(code)):
        p_i, p_j, __, p_dir, p_el, ___ = code[k - 1]
        used.add((p_i, p_j, p_el) if p_dir == 0 else (p_j, p_i, p_el))
        if p_i < p_j:
            rm_path = paths[p_j] = paths[p_i] + (p_j,)
        rightmost = rm_path[-1]
        e_i, e_j, __, e_dir, e_el, e_lj = code[k]
        expected_forward = e_i < e_j
        e_rest = (e_dir, e_el, e_lj)
        matched: List[Tuple[int, ...]] = []
        for mapping in mappings:
            g_rightmost = mapping[rightmost]
            # backward extensions from the rightmost vertex; any backward
            # extension sorts before every forward one
            for other, elabel, direction in adj[g_rightmost]:
                if other not in mapping:
                    continue
                back_to = mapping.index(other)
                if back_to == rightmost or back_to not in rm_path:
                    continue
                if (
                    (rightmost, back_to, elabel)
                    if direction == 0
                    else (back_to, rightmost, elabel)
                ) in used:
                    continue
                if expected_forward:
                    return False
                if back_to < e_j:
                    return False
                if back_to > e_j:
                    continue
                rest = (direction, elabel, labels[other])
                if rest < e_rest:
                    return False
                if rest == e_rest:
                    matched.append(mapping)
            # forward extensions; deeper sources sort first
            if expected_forward:
                for dfs_index in rm_path:
                    if dfs_index < e_i:
                        continue
                    g_node = mapping[dfs_index]
                    deeper = dfs_index > e_i
                    for other, elabel, direction in adj[g_node]:
                        if other in mapping:
                            continue
                        if deeper:
                            return False
                        rest = (direction, elabel, labels[other])
                        if rest < e_rest:
                            return False
                        if rest == e_rest:
                            matched.append(mapping + (other,))
        mappings = matched
    return True
