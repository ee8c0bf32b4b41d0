"""DFS codes: ordering, canonical form, invariance properties."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.mining.dfs_code import (
    code_num_nodes,
    compare_codes,
    compare_edges,
    graph_edges_of,
    is_min,
    min_dfs_code,
    node_labels_of,
    rightmost_path,
)


class TestEdgeOrder:
    def test_forward_deeper_target_first(self):
        e1 = (0, 1, 0, 0, 0, 0)
        e2 = (1, 2, 0, 0, 0, 0)
        assert compare_edges(e1, e2) < 0

    def test_forward_same_target_deeper_source_first(self):
        deep = (2, 3, 0, 0, 0, 0)
        shallow = (0, 3, 0, 0, 0, 0)
        assert compare_edges(deep, shallow) < 0

    def test_backward_before_forward_from_same_vertex(self):
        backward = (2, 0, 0, 0, 0, 0)
        forward = (2, 3, 0, 0, 0, 0)
        assert compare_edges(backward, forward) < 0

    def test_label_tiebreak(self):
        small = (0, 1, 0, 0, 0, 1)
        large = (0, 1, 0, 0, 0, 2)
        assert compare_edges(small, large) < 0
        assert compare_edges(large, small) > 0
        assert compare_edges(small, small) == 0

    def test_direction_flag_breaks_ties(self):
        out_edge = (0, 1, 5, 0, 0, 5)
        in_edge = (0, 1, 5, 1, 0, 5)
        assert compare_edges(out_edge, in_edge) < 0


class TestRightmostPath:
    def test_chain(self):
        code = [(0, 1, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0)]
        assert rightmost_path(code) == [0, 1, 2]

    def test_branching(self):
        code = [(0, 1, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0)]
        assert rightmost_path(code) == [0, 2]

    def test_with_backward_edge(self):
        code = [
            (0, 1, 0, 0, 0, 0),
            (1, 2, 0, 0, 0, 0),
            (2, 0, 0, 0, 0, 0),
        ]
        assert rightmost_path(code) == [0, 1, 2]


class TestCodeRecovery:
    def test_node_labels(self):
        code = [(0, 1, 7, 0, 0, 8), (1, 2, 8, 0, 0, 9)]
        assert node_labels_of(code) == [7, 8, 9]

    def test_graph_edges_respect_direction_flag(self):
        code = [(0, 1, 0, 0, 5, 1), (0, 2, 0, 1, 6, 2)]
        assert graph_edges_of(code) == [(0, 1, 5), (2, 0, 6)]

    def test_num_nodes(self):
        assert code_num_nodes([(0, 1, 0, 0, 0, 0)]) == 2
        assert code_num_nodes([]) == 0


class TestCanonicalForm:
    def test_single_edge_orientations(self):
        # one directed edge A->B seen from either end
        from_a = ((0, 1, 0, 0, 0, 1),)
        from_b = ((0, 1, 1, 1, 0, 0),)
        assert min_dfs_code(from_a) == min_dfs_code(from_b)
        assert is_min(from_a) != is_min(from_b) or from_a == from_b

    def test_chain_from_both_ends(self):
        fwd = ((0, 1, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0))
        bwd = ((0, 1, 0, 1, 0, 0), (1, 2, 0, 1, 0, 0))
        assert min_dfs_code(fwd) == min_dfs_code(bwd)

    def test_min_is_idempotent(self):
        diamond = (
            (0, 1, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0),
            (0, 3, 0, 0, 0, 0), (3, 2, 0, 0, 0, 0),
        )
        canonical = min_dfs_code(diamond)
        assert is_min(canonical)
        assert min_dfs_code(canonical) == canonical

    def test_paper_fig7_code_is_canonical(self):
        # sub(0)->add(1), sub(0)->ldr(2), ldr(3)->sub(0)
        # labels: sub=0 < add=1 < ldr=2 (paper's ordering)
        code = ((0, 1, 0, 0, 0, 1), (0, 2, 0, 0, 0, 2), (0, 3, 0, 1, 0, 2))
        assert is_min(code)


def _relabel_permutations(code):
    """All codes of the same graph under node renumbering, via explicit
    edge lists and re-derivation."""
    labels = node_labels_of(code)
    edges = graph_edges_of(code)
    n = len(labels)
    for perm in itertools.permutations(range(n)):
        yield (
            [labels[perm.index(i)] for i in range(n)],
            [(perm[s], perm[d], el) for (s, d, el) in edges],
        )


@st.composite
def random_codes(draw):
    """Random connected DFS-code-shaped graphs (up to 5 nodes)."""
    n = draw(st.integers(2, 5))
    labels = [draw(st.integers(0, 2)) for __ in range(n)]
    code = []
    for j in range(1, n):
        i = draw(st.integers(0, j - 1))
        direction = draw(st.integers(0, 1))
        elabel = draw(st.integers(0, 1))
        code.append((i, j, labels[i], direction, elabel, labels[j]))
    return tuple(code)


@st.composite
def random_cyclic_codes(draw):
    """Random DFS codes with cycles (up to 5 nodes).

    Each code grows by rightmost extensions, as the miners grow theirs:
    forward edges leave the rightmost path for a new node, and backward
    edges (up to two before each forward edge and two at the end) run
    from the rightmost vertex back to the rightmost path.  A backward
    edge to the rightmost vertex's parent is a parallel edge; it needs
    another label or direction than the edges already there.
    """
    n = draw(st.integers(2, 5))
    labels = [draw(st.integers(0, 1)) for __ in range(n)]
    code = []
    #: graph edges by DFS index: (src, dst, edge_label)
    edges = set()
    rm_path = [0]

    def add(i, j, direction, elabel):
        edge = (i, j, elabel) if direction == 0 else (j, i, elabel)
        if edge in edges:
            return
        edges.add(edge)
        code.append((i, j, labels[i], direction, elabel, labels[j]))

    def backward_edges():
        if len(rm_path) < 2:
            return
        for __ in range(draw(st.integers(0, 2))):
            add(rm_path[-1], draw(st.sampled_from(rm_path[:-1])),
                draw(st.integers(0, 1)), draw(st.integers(0, 1)))

    for j in range(1, n):
        backward_edges()
        i = draw(st.sampled_from(rm_path))
        add(i, j, draw(st.integers(0, 1)), draw(st.integers(0, 1)))
        rm_path = rm_path[:rm_path.index(i) + 1] + [j]
    backward_edges()
    return tuple(code)


@given(st.one_of(random_codes(), random_cyclic_codes()))
@settings(max_examples=150, deadline=None)
def test_min_code_invariant_under_start_choice(code):
    """The canonical form must not depend on the DFS-code presentation."""
    canonical = min_dfs_code(code)
    assert is_min(canonical)
    assert min_dfs_code(canonical) == canonical
    # the canonical code denotes an isomorphic graph: same sorted labels
    # and the same number of edges
    assert sorted(node_labels_of(canonical)) == sorted(node_labels_of(code))
    assert len(canonical) == len(code)


@given(random_codes())
@settings(max_examples=60, deadline=None)
def test_compare_codes_total_order(code):
    canonical = min_dfs_code(code)
    assert compare_codes(canonical, tuple(code)) <= 0
    assert compare_codes(canonical, canonical) == 0


@given(random_codes())
@settings(max_examples=200, deadline=None)
def test_is_min_agrees_with_min_dfs_code(code):
    """The fast early-abort is_min must agree with the reference
    construction on every valid code."""
    assert is_min(tuple(code)) == (min_dfs_code(code) == tuple(code))


@given(random_cyclic_codes())
@settings(max_examples=300, deadline=None)
def test_is_min_agrees_with_min_dfs_code_on_cycles(code):
    """Backward edges reach is_min's used-edge test, which trees never
    do: a backward edge between two mapped nodes is an extension unless
    the prefix already holds that edge in that direction."""
    assert is_min(code) == (min_dfs_code(code) == code)


def test_cyclic_codes_reach_minimal_and_non_minimal_cycles():
    """The cyclic strategy is not vacuous: it draws minimal and
    non-minimal codes with parallel edges, and cycles through three or
    more nodes.  (Minimal codes of the latter are rare; the hand-built
    triangles in ``test_canonical_reference.py`` cover them.)"""
    seen = set()

    @given(random_cyclic_codes())
    @settings(max_examples=300, deadline=None, database=None,
              derandomize=True)
    def classify(code):
        if all(e[0] < e[1] for e in code):
            return
        pairs = [frozenset(e[:2]) for e in code]
        seen.add((is_min(code), len(pairs) != len(set(pairs))))

    classify()
    assert {(True, True), (False, True), (False, False)} <= seen
