"""Support-first lattice expansion and the per-DFG convexity memo.

The miners drop every extension with fewer raw embeddings than
``min_support`` before its canonical check, and ``between_nodes`` is
cached per DFG by node set.  Both are exact: a reference miner with the
older order — ``is_min`` on every child, support tested afterwards,
convexity recomputed on every query — must find the same fragments in
the same order, and a PA run with it must produce the same module.
"""

import random
import time

import pytest

from repro import telemetry
from repro.dfg.builder import build_dfgs
from repro.dfg.graph import DFG
from repro.mining import gspan, pruning
from repro.mining.dfs_code import code_num_nodes, edge_sort_key
from repro.mining.edgar import Edgar
from repro.mining.embeddings import dedupe_by_node_set
from repro.mining.gspan import DgSpan, _DeadlineReached
from repro.pa.driver import PAConfig, run_pa
from repro.scale import shard
from repro.workloads import compile_workload


class _ReferenceLoop:
    """The lattice expansion before support-first ordering.

    Every child is sorted and canonically checked; support is only
    tested once the child's own ``_search`` runs, and so is a bound
    legality prune's dead verdict.
    """

    def _frequent_extensions(self, extensions, state):
        legality = self._legality
        return {
            tup: None if legality is None else legality.child(state, tup)
            for tup in extensions
        }

    def _search(self, db, code, embeddings, results, state=None):
        if self._legality is not None and state is None:
            return  # dead under the legality prune
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise _DeadlineReached
        if len(embeddings) > self.max_embeddings:
            self.truncated_branches += 1
            embeddings = embeddings[: self.max_embeddings]
        embeddings = self._filter_embeddings(db, code, embeddings)
        unique = dedupe_by_node_set(embeddings)
        if not self._is_frequent(db, unique):
            return
        if self.prune_subtree is not None:
            bound = self._occurrence_bound(db, code, unique)
            if self.prune_subtree(self.max_nodes, bound):
                return
        if self._legality is not None and self._legality.cut(state, unique):
            return
        self.visited_nodes += 1
        num_nodes = code_num_nodes(code)
        if num_nodes >= self.min_nodes:
            fragment = self._fragment(db, code, unique)
            if self.on_fragment is not None:
                self.on_fragment(fragment)
            else:
                results.append(fragment)
        if num_nodes >= self.max_nodes:
            return
        children = self._extensions(db, code, embeddings)
        states = self._frequent_extensions(children, state)
        for tup in sorted(
            children, key=lambda t: (-len(children[t]), edge_sort_key(t))
        ):
            child = code + (tup,)
            if gspan.is_min(child):
                self._search(db, child,
                             gspan.child_embeddings(tup, children[tup]),
                             results, states[tup])


class ReferenceDgSpan(_ReferenceLoop, DgSpan):
    pass


class ReferenceEdgar(_ReferenceLoop, Edgar):
    pass


def uncached_between(dfg, nodes):
    node_set = set(nodes)
    forward = pruning._forward_reach(dfg, node_set, limit=max(node_set))
    backward = pruning._backward_reach(dfg, node_set, limit=min(node_set))
    return (forward & backward) - node_set


def _dfgs(workload):
    module = compile_workload(workload)
    return build_dfgs(module, min_nodes=0,
                      mined_kinds=PAConfig().mined_kinds)


def _mine(miner, workload):
    fragments = miner.mine(_dfgs(workload))
    return fragments, miner.visited_nodes, miner.truncated_branches


def _make_reference_miner(config):
    if config.miner == "edgar":
        return ReferenceEdgar(
            min_support=config.min_support,
            min_nodes=config.min_nodes,
            max_nodes=config.max_nodes,
            max_embeddings=config.max_embeddings,
            pa_pruning=config.pa_pruning,
            mis_exact_limit=config.mis_exact_limit,
        )
    return ReferenceDgSpan(
        min_support=config.min_support,
        min_nodes=config.min_nodes,
        max_nodes=config.max_nodes,
        max_embeddings=config.max_embeddings,
    )


@pytest.fixture
def count_is_min(monkeypatch):
    calls = [0]
    real = gspan.is_min

    def counting(code):
        calls[0] += 1
        return real(code)

    monkeypatch.setattr(gspan, "is_min", counting)
    return calls


class TestExactness:
    @pytest.mark.parametrize("miner_cls, reference_cls, workload", [
        (Edgar, ReferenceEdgar, "crc"),
        (Edgar, ReferenceEdgar, "sha"),
        (DgSpan, ReferenceDgSpan, "crc"),
    ])
    def test_fragment_stream_identical(self, miner_cls, reference_cls,
                                       workload, monkeypatch):
        fast = _mine(miner_cls(max_nodes=5), workload)
        with monkeypatch.context() as patch:
            patch.setattr(pruning, "between_nodes", uncached_between)
            reference = _mine(reference_cls(max_nodes=5), workload)
        fragments, visited, truncated = fast
        assert fragments, "the workload must yield fragments"
        assert [f.code for f in fragments] == [
            f.code for f in reference[0]
        ]
        # code, labels, edges, embeddings and support, in order
        assert fragments == reference[0]
        assert visited == reference[1]
        assert truncated == reference[2]

    def test_pa_run_identical(self, monkeypatch):
        module = compile_workload("crc")
        result = run_pa(module, PAConfig())
        with monkeypatch.context() as patch:
            patch.setattr(pruning, "between_nodes", uncached_between)
            patch.setattr(shard, "_make_miner", _make_reference_miner)
            ref_module = compile_workload("crc")
            reference = run_pa(ref_module, PAConfig())
        assert result.saved > 0
        assert module.render() == ref_module.render()
        assert result.records == reference.records
        assert result.rounds == reference.rounds
        assert result.lattice_nodes == reference.lattice_nodes


class TestWorkCounters:
    def test_is_min_calls_at_least_halved(self, count_is_min, monkeypatch):
        run_pa(compile_workload("crc"), PAConfig())
        fast_calls = count_is_min[0]
        count_is_min[0] = 0
        with monkeypatch.context() as patch:
            patch.setattr(shard, "_make_miner", _make_reference_miner)
            run_pa(compile_workload("crc"), PAConfig())
        assert fast_calls > 0
        assert 2 * fast_calls <= count_is_min[0]

    def test_no_node_set_swept_twice_per_dfg(self, monkeypatch):
        swept = []
        keep_alive = []  # pins the DFGs so their ids stay unique
        real = pruning._forward_reach

        def recording(dfg, start, limit=None):
            keep_alive.append(dfg)
            swept.append((id(dfg), frozenset(start)))
            return real(dfg, start, limit)

        monkeypatch.setattr(pruning, "_forward_reach", recording)
        run_pa(compile_workload("crc"), PAConfig())
        assert swept
        assert len(swept) == len(set(swept))

    def test_funnel_counters_account_for_every_child(self, monkeypatch,
                                                     count_is_min):
        children = [0]
        real = DgSpan._extensions

        def counting(self, db, code, embeddings):
            extensions = real(self, db, code, embeddings)
            children[0] += len(extensions)
            return extensions

        monkeypatch.setattr(DgSpan, "_extensions", counting)
        telemetry.reset()
        telemetry.enable()
        try:
            Edgar(max_nodes=5).mine(_dfgs("crc"))
            registry = telemetry.get()
            seeds = sum(
                r.args["seeds"] for r in registry.spans
                if r.name == "mining.mine"
            )
            skips = registry.counter_value("mining.support_skips")
            checks = registry.counter_value("mining.canonical_checks")
        finally:
            telemetry.disable()
            telemetry.reset()
        assert skips > 0
        assert checks == count_is_min[0]
        assert skips + checks == children[0] + seeds


class TestBetweenMemo:
    def test_cached_matches_fresh_computation(self):
        dfg = max(_dfgs("sha"), key=lambda g: g.num_nodes)
        rng = random.Random(7)
        for __ in range(200):
            size = rng.randint(1, min(8, dfg.num_nodes))
            nodes = rng.sample(range(dfg.num_nodes), size)
            first = pruning.between_nodes(dfg, nodes)
            again = pruning.between_nodes(dfg, reversed(nodes))
            assert isinstance(first, frozenset)
            assert first == uncached_between(dfg, nodes)
            assert again is first

    def test_dfgs_with_different_dep_edges_do_not_share(self):
        labels = ["A", "B", "C"]
        chained = DFG(labels=labels, insns=[None] * 3,
                      edges=set(), dep_edges={(0, 1, "d"), (1, 2, "d")})
        loose = DFG(labels=labels, insns=[None] * 3,
                    edges=set(), dep_edges={(0, 2, "d")})
        assert pruning.between_nodes(chained, [0, 2]) == {1}
        assert pruning.between_nodes(loose, [0, 2]) == frozenset()
        assert pruning.is_convex(loose, [0, 2])
        assert not pruning.is_convex(chained, [0, 2])
