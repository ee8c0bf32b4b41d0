"""An embedding's node set is built once and stays out of its value.

``Embedding.node_set`` is cached in the instance dict.  It must stay
invisible to everything that treats the embedding as a value: equality
and hashing (which must match the plain frozen dataclass the class used
to be), ``repr`` and copies.
"""

import copy
import dataclasses
from typing import Tuple

import pytest

from repro.mining.embeddings import Embedding, dedupe_by_node_set


@dataclasses.dataclass(frozen=True)
class FrozenEmbedding:
    """The embedding class before the node-set cache."""

    graph: int
    nodes: Tuple[int, ...]


SAMPLES = [
    (0, (1, 2, 3)),
    (0, (3, 2, 1)),
    (1, (1, 2, 3)),
    (0, (1, 2)),
    (2, ()),
    (0, (1, 2, 3)),
]


def _cached(embedding):
    assert isinstance(embedding.node_set, frozenset)
    assert "node_set" in embedding.__dict__
    return embedding


class TestValueSemantics:
    def test_equality_and_hash_match_the_frozen_dataclass(self):
        for graph_a, nodes_a in SAMPLES:
            for graph_b, nodes_b in SAMPLES:
                new_a = _cached(Embedding(graph_a, nodes_a))
                new_b = Embedding(graph_b, nodes_b)
                old_a = FrozenEmbedding(graph_a, nodes_a)
                old_b = FrozenEmbedding(graph_b, nodes_b)
                assert (new_a == new_b) == (old_a == old_b)
                assert (new_a != new_b) == (old_a != old_b)
            assert hash(Embedding(graph_a, nodes_a)) == hash(
                FrozenEmbedding(graph_a, nodes_a)
            )
            assert hash(_cached(Embedding(graph_a, nodes_a))) == hash(
                FrozenEmbedding(graph_a, nodes_a)
            )

    def test_repr_and_fields_ignore_the_cache(self):
        embedding = _cached(Embedding(3, (4, 5)))
        assert repr(embedding) == "Embedding(graph=3, nodes=(4, 5))"
        assert [f.name for f in dataclasses.fields(Embedding)] == [
            "graph", "nodes",
        ]
        assert dataclasses.astuple(embedding) == (3, (4, 5))
        with pytest.raises(dataclasses.FrozenInstanceError):
            embedding.nodes = (6,)

    def test_node_set_is_built_once(self):
        embedding = Embedding(0, (5, 1, 3))
        first = embedding.node_set
        assert first == frozenset({1, 3, 5})
        assert embedding.node_set is first
        assert embedding.node_set is first

    def test_dedupe_keeps_the_first_of_each_node_set(self):
        embeddings = [Embedding(g, n) for g, n in SAMPLES]
        unique = dedupe_by_node_set(embeddings)
        assert unique == [
            Embedding(0, (1, 2, 3)), Embedding(1, (1, 2, 3)),
            Embedding(0, (1, 2)), Embedding(2, ()),
        ]
        assert unique[0] is embeddings[0]

    def test_overlaps(self):
        assert Embedding(0, (1, 2)).overlaps(Embedding(0, (2, 3)))
        assert not Embedding(0, (1, 2)).overlaps(Embedding(0, (3, 4)))
        assert not Embedding(0, (1, 2)).overlaps(Embedding(1, (1, 2)))


class TestCopies:
    def test_copies_equal_the_original(self):
        cached = _cached(Embedding(1, (7, 8)))
        for clone in (copy.copy(cached), copy.deepcopy(cached),
                      dataclasses.replace(cached)):
            assert clone == cached
            assert hash(clone) == hash(cached)
            assert clone.node_set == cached.node_set
