"""Miner resource limits: deadlines, truncation, streaming hooks."""

from repro.dfg.graph import DFG
from repro.mining.edgar import Edgar
from repro.mining.gspan import DgSpan
from repro.resilience import governor
from repro.resilience.governor import RunGovernor


def chain(labels):
    edges = {(i, i + 1, "d") for i in range(len(labels) - 1)}
    return DFG(labels=[str(l) for l in labels], insns=[None] * len(labels),
               edges=edges, dep_edges=set(edges))


def dense(n):
    """A graph with many identical labels: combinatorial embeddings."""
    labels = ["X"] * n
    edges = {(i, j, "d") for i in range(n) for j in range(i + 1, n)}
    return DFG(labels=labels, insns=[None] * n, edges=edges,
               dep_edges=set(edges))


def test_deadline_unwinds_cleanly():
    db = [dense(12) for __ in range(4)]
    miner = Edgar(min_support=2, max_nodes=8)
    expired = RunGovernor(time_budget=1.0)
    expired.force_expire()
    with governor.activate(expired):
        fragments = miner.mine(db)
    assert miner.deadline_hit
    assert fragments == [] or all(f.support >= 2 for f in fragments)


def test_no_deadline_by_default():
    miner = Edgar(min_support=2)
    fragments = miner.mine([chain("ABC"), chain("ABC")])
    assert not miner.deadline_hit
    assert fragments


def test_partial_results_are_valid():
    db = [dense(10) for __ in range(2)]
    miner = Edgar(min_support=2, max_nodes=6)
    seen = []
    miner.on_fragment = (
        lambda size, bound, embeddings, build: seen.append(build())
    )
    with governor.activate(RunGovernor(time_budget=0.3)):
        miner.mine(db)
    for fragment in seen:
        assert fragment.num_nodes >= 2
        assert len(fragment.embeddings) >= 1


def test_truncation_counter():
    db = [dense(11) for __ in range(2)]
    miner = Edgar(min_support=2, max_nodes=4, max_embeddings=5)
    miner.mine(db)
    assert miner.truncated_branches > 0


def test_streaming_sink_replaces_list():
    db = [chain("ABC"), chain("ABC")]
    miner = DgSpan(min_support=2)
    collected = []
    miner.on_fragment = (
        lambda size, bound, embeddings, build: collected.append(build())
    )
    returned = miner.mine(db)
    assert returned == []
    assert collected


def test_prune_subtree_hook_can_stop_everything():
    db = [chain("ABCDE"), chain("ABCDE")]
    miner = DgSpan(min_support=2)
    miner.prune_subtree = lambda cap, n: True
    assert miner.mine(db) == []

    miner.prune_subtree = lambda cap, n: False
    assert miner.mine(db)


def test_visited_nodes_counted():
    db = [chain("ABC"), chain("ABC")]
    miner = DgSpan(min_support=2)
    miner.mine(db)
    assert miner.visited_nodes > 0
