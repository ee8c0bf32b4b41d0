"""The canonical check and the extension step against their older forms.

``is_min`` decides step 0 from the code tuples, grows the rightmost path
one edge at a time and tests used edges by DFS index, one set per step
for every mapping.  ``DgSpan._extensions`` shares one DFS-index used set
across a lattice node's embeddings and keeps forward extensions as
(parent embedding, new node) pairs, which ``child_embeddings``
materialises only for the children the search visits.  Both rest on one
rule: mappings are injective, so the graph edge between ``mapping[a]``
and ``mapping[b]`` is used exactly when the code holds the DFS edge
between *a* and *b* with that label and direction.

The references below are the older forms.  They rebuild the code's
graph, re-derive the rightmost path at every step, and build a set of
used *graph* edges for every mapping.  Every code and every embedding
list that PA runs of crc and search hand to the two entry points must
get the same verdict and the same extension map, in the same order.
"""

from typing import Dict, List, Sequence, Tuple

import pytest

from repro.mining import gspan
from repro.mining.dfs_code import (
    EdgeTuple,
    _CodeGraph,
    min_dfs_code,
    rightmost_path,
)
from repro.mining.embeddings import Embedding
from repro.mining.gspan import DgSpan
from repro.pa.driver import PAConfig, run_pa
from repro.workloads import compile_workload


def reference_used_edges(code: Sequence[EdgeTuple],
                         mapping: Tuple[int, ...]):
    """Graph edges already consumed by *mapping* of *code*."""
    used = set()
    for i, j, __, direction, elabel, ___ in code:
        if direction == 0:
            used.add((mapping[i], mapping[j], elabel))
        else:
            used.add((mapping[j], mapping[i], elabel))
    return used


def reference_is_min(code: Sequence[EdgeTuple]) -> bool:
    """``is_min`` as it was: the code graph is rebuilt, the rightmost
    path re-derived at every step, the used edges per mapping."""
    graph = _CodeGraph(code)
    labels = graph.labels
    adj = graph.adj
    built: List[EdgeTuple] = []
    mappings: List[Tuple[int, ...]] = [()]
    for expected in code:
        e_i, e_j, __, e_dir, e_el, e_lj = expected
        expected_forward = e_i < e_j
        e_rest = (e_dir, e_el, e_lj)
        matched: List[Tuple[int, ...]] = []
        if not built:
            e_label4 = expected[2:]
            for src, dst, elabel in graph.edges:
                for a, b, direction in ((src, dst, 0), (dst, src, 1)):
                    label4 = (labels[a], direction, elabel, labels[b])
                    if label4 < e_label4:
                        return False
                    if label4 == e_label4:
                        matched.append((a, b))
            built.append(expected)
            mappings = matched
            continue
        rm_path = rightmost_path(built)
        rightmost = rm_path[-1]
        rm_set = set(rm_path)
        for mapping in mappings:
            mapped = set(mapping)
            used = reference_used_edges(built, mapping)
            g_rightmost = mapping[rightmost]
            for other, elabel, direction in adj[g_rightmost]:
                if other not in mapped:
                    continue
                back_to = mapping.index(other)
                if back_to == rightmost or back_to not in rm_set:
                    continue
                gedge = (
                    (g_rightmost, other, elabel)
                    if direction == 0
                    else (other, g_rightmost, elabel)
                )
                if gedge in used:
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
            if expected_forward:
                for dfs_index in rm_path:
                    if dfs_index < e_i:
                        continue
                    g_node = mapping[dfs_index]
                    deeper = dfs_index > e_i
                    for other, elabel, direction in adj[g_node]:
                        if other in mapped:
                            continue
                        if deeper:
                            return False
                        rest = (direction, elabel, labels[other])
                        if rest < e_rest:
                            return False
                        if rest == e_rest:
                            matched.append(mapping + (other,))
        built.append(expected)
        mappings = matched
    return True


def reference_extensions(db, code, embeddings
                         ) -> Dict[EdgeTuple, List[Embedding]]:
    """``DgSpan._extensions`` as it was: a node set and a used-edge set
    of graph edges for every embedding."""
    extensions: Dict[EdgeTuple, List[Embedding]] = {}
    rm_path = rightmost_path(code)
    rightmost = rm_path[-1]
    rm_set = set(rm_path)
    for emb in embeddings:
        graph = db.graphs[emb.graph]
        mapping = emb.nodes
        mapped = set(mapping)
        used = reference_used_edges(code, mapping)
        g_rightmost = mapping[rightmost]
        for other, elabel, direction in graph.adj[g_rightmost]:
            if other not in mapped:
                continue
            back_to = mapping.index(other)
            if back_to == rightmost or back_to not in rm_set:
                continue
            gedge = (
                (g_rightmost, other, elabel)
                if direction == 0
                else (other, g_rightmost, elabel)
            )
            if gedge in used:
                continue
            tup = (
                rightmost, back_to, graph.nodes[g_rightmost],
                direction, elabel, graph.nodes[other],
            )
            extensions.setdefault(tup, []).append(emb)
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
                extensions.setdefault(tup, []).append(
                    Embedding(emb.graph, mapping + (other,))
                )
    return extensions


class _Recorder:
    """Runs the fast and the reference form side by side."""

    def __init__(self):
        self.codes = 0
        self.accepted = 0
        self.backward_codes = 0
        self.verdict_mismatches: List[tuple] = []
        self.extension_calls = 0
        self.embeddings = 0
        self.backward_children = 0
        self.extension_mismatches: List[tuple] = []

    def is_min(self, real):
        def checked(code):
            verdict = real(code)
            reference = reference_is_min(code)
            self.codes += 1
            self.accepted += verdict
            if any(i > j for i, j, *__ in code):
                self.backward_codes += 1
            if verdict != reference:
                self.verdict_mismatches.append((code, verdict, reference))
            return verdict
        return checked

    def extensions(self, real):
        def checked(miner, db, code, embeddings):
            fast = real(miner, db, code, embeddings)
            reference = reference_extensions(db, code, embeddings)
            self.extension_calls += 1
            self.embeddings += len(embeddings)
            self.backward_children += sum(
                1 for tup in fast if tup[0] > tup[1]
            )
            materialised = [
                (tup, gspan.child_embeddings(tup, entries))
                for tup, entries in fast.items()
            ]
            if materialised != list(reference.items()):
                self.extension_mismatches.append((code, len(embeddings)))
            return fast
        return checked


@pytest.mark.parametrize("miner", ["edgar", "dgspan"])
@pytest.mark.parametrize("workload", ["crc", "search"])
def test_fast_forms_match_the_references(miner, workload, monkeypatch):
    recorder = _Recorder()
    monkeypatch.setattr(gspan, "is_min", recorder.is_min(gspan.is_min))
    monkeypatch.setattr(
        DgSpan, "_extensions", recorder.extensions(DgSpan._extensions)
    )
    result = run_pa(compile_workload(workload), PAConfig(miner=miner))
    assert result.saved > 0
    assert recorder.verdict_mismatches == []
    assert recorder.extension_mismatches == []
    # the runs reach every branch the rewrite touched
    assert 0 < recorder.accepted < recorder.codes
    assert recorder.backward_codes > 0
    assert recorder.extension_calls > 0
    assert recorder.backward_children > 0


@pytest.mark.parametrize("code, minimal", [
    # a 2-cycle: A->B and B->A with one label; the backward edge must
    # not be mistaken for the used forward one
    (((0, 1, 0, 0, 0, 1), (1, 0, 1, 0, 0, 0)), True),
    (((0, 1, 0, 1, 0, 1), (1, 0, 1, 1, 0, 0)), False),
    # parallel edges B->A with labels 0 and 1, found from A: the used
    # edge runs against the DFS direction
    (((0, 1, 0, 1, 0, 1), (1, 0, 1, 0, 1, 0)), True),
    # parallel edges A->B with labels 0 and 1
    (((0, 1, 0, 0, 0, 1), (1, 0, 1, 1, 1, 0)), True),
    (((0, 1, 0, 0, 1, 1), (1, 0, 1, 1, 0, 0)), False),
    # triangles closed along and against the DFS direction
    (((0, 1, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0), (2, 0, 0, 1, 0, 0)), True),
    (((0, 1, 0, 0, 0, 0), (1, 2, 0, 0, 0, 0), (2, 0, 0, 0, 0, 0)), True),
    (((0, 1, 0, 0, 0, 0), (0, 2, 0, 0, 0, 0), (2, 1, 0, 1, 0, 0)), False),
    # only the reversed orientation of an edge sorts below code[0]
    (((0, 1, 1, 1, 0, 0),), False),
    (((0, 1, 1, 0, 0, 1), (1, 2, 1, 1, 0, 0)), False),
])
def test_hand_built_cycles(code, minimal):
    assert (min_dfs_code(code) == code) is minimal
    assert reference_is_min(code) is minimal
    assert gspan.is_min(code) is minimal
