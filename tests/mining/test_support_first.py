"""Support-first lattice expansion and the per-DFG convexity memo.

The miners drop every extension with fewer raw entries than
``min_support``, or failing their own ``_may_be_frequent`` hook (Edgar:
no two node-disjoint occurrences; DgSpan: too few graphs), before its
canonical check, and ``between_nodes`` is cached per DFG by node set.
Both are exact: a reference miner with the older order — ``is_min`` on
every child, support tested afterwards, convexity recomputed on every
query — must find the same fragments in the same order, and a PA run
with it must produce the same module.
"""

import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.dfg.builder import build_dfgs
from repro.dfg.graph import DFG
from repro.mining import gspan, pruning
from repro.mining.dfs_code import code_num_nodes, edge_sort_key
from repro.mining.edgar import Edgar
from repro.mining.embeddings import Embedding, dedupe_by_node_set
from repro.mining.gspan import DgSpan, MiningDB, _DeadlineReached
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
        (Edgar, ReferenceEdgar, "qsort"),
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
        self._check_pa_run_identical("crc", {}, monkeypatch)

    # Edgar's hook drops children on qsort and sha; DgSpan's on crc.
    @pytest.mark.parametrize("workload, options", [
        ("qsort", {}),
        ("sha", {"max_nodes": 5}),
        ("crc", {"miner": "dgspan"}),
    ], ids=["qsort", "sha-5", "crc-dgspan"])
    def test_pa_run_identical_where_the_hook_drops(self, workload, options,
                                                  monkeypatch):
        self._check_pa_run_identical(workload, options, monkeypatch)

    @staticmethod
    def _check_pa_run_identical(workload, options, monkeypatch):
        module = compile_workload(workload)
        result = run_pa(module, PAConfig(**options))
        with monkeypatch.context() as patch:
            patch.setattr(pruning, "between_nodes", uncached_between)
            patch.setattr(shard, "_make_miner", _make_reference_miner)
            ref_module = compile_workload(workload)
            reference = run_pa(ref_module, PAConfig(**options))
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
        hook_drops = [0]
        real_extensions = DgSpan._extensions
        real_hook = Edgar._may_be_frequent

        def counting(self, db, code, embeddings):
            extensions = real_extensions(self, db, code, embeddings)
            children[0] += len(extensions)
            return extensions

        def counting_hook(self, entries):
            kept = real_hook(self, entries)
            hook_drops[0] += not kept
            return kept

        monkeypatch.setattr(DgSpan, "_extensions", counting)
        monkeypatch.setattr(Edgar, "_may_be_frequent", counting_hook)
        # crc: only raw counts drop children; qsort: the hook does too
        for workload in ("crc", "qsort"):
            children[0] = hook_drops[0] = count_is_min[0] = 0
            telemetry.reset()
            telemetry.enable()
            try:
                Edgar(max_nodes=5).mine(_dfgs(workload))
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
            assert skips > hook_drops[0]
            assert checks == count_is_min[0]
            assert skips + checks == children[0] + seeds
        assert hook_drops[0] > 0

    def test_sha_deep_work_counters_pinned(self):
        """Exact, machine-independent work of sha at ``max_nodes`` 5
        under Edgar: the lattice and the canonical checks behind it."""
        telemetry.reset()
        telemetry.enable()
        try:
            result = run_pa(compile_workload("sha"), PAConfig(max_nodes=5))
            registry = telemetry.get()
            checks = registry.counter_value("mining.canonical_checks")
            nodes = registry.counter_value("mining.lattice_nodes")
        finally:
            telemetry.disable()
            telemetry.reset()
        assert result.lattice_nodes == nodes == 5618
        assert checks == 16297


@st.composite
def _random_dfgs(draw):
    """One to three small blocks over two labels; each dependence edge
    is mined ("d") or only constrains legality ("a")."""
    dfgs = []
    for __ in range(draw(st.integers(1, 3))):
        size = draw(st.integers(2, 8))
        labels = draw(st.lists(st.sampled_from("AB"), min_size=size,
                               max_size=size))
        pairs = draw(st.sets(st.tuples(st.integers(0, size - 1),
                                       st.integers(0, size - 1))
                             .filter(lambda p: p[0] < p[1]), max_size=12))
        kinds = {pair: draw(st.sampled_from("dda")) for pair in sorted(pairs)}
        mined = {(s, d, "d") for (s, d), k in kinds.items() if k == "d"}
        dfgs.append(DFG(
            labels=labels, insns=[None] * size, edges=mined,
            dep_edges={(s, d, k) for (s, d), k in kinds.items()},
        ))
    return dfgs


def _embeddings_of(entries):
    if type(entries[0]) is tuple:
        return [Embedding(emb.graph, emb.nodes + (node,))
                for emb, node in entries]
    return list(entries)


class TestMayBeFrequent:
    def test_edgar_drops_only_occurrences_sharing_a_node(self):
        edgar = Edgar(min_support=2)
        sharing = [Embedding(0, (0, 1)), Embedding(0, (1, 2))]
        disjoint = [Embedding(0, (0, 1)), Embedding(0, (2, 3))]
        two_graphs = [Embedding(0, (0, 1)), Embedding(1, (0, 1))]
        assert not edgar._may_be_frequent(sharing)
        assert edgar._may_be_frequent(disjoint)
        assert edgar._may_be_frequent(two_graphs)
        # forward entries: the shared node may be the new one
        parents = [Embedding(0, (0, 1)), Embedding(0, (2, 3))]
        assert not edgar._may_be_frequent([(e, 5) for e in parents])
        assert edgar._may_be_frequent(list(zip(parents, (5, 6))))
        assert not edgar._may_be_frequent(
            [(sharing[0], 4), (sharing[1], 5)]
        )

    def test_dgspan_counts_graphs(self):
        one_graph = [Embedding(0, (0, 1)), Embedding(0, (2, 3))]
        assert not DgSpan(min_support=2)._may_be_frequent(one_graph)
        assert not DgSpan(min_support=2)._may_be_frequent(
            [(e, 5) for e in one_graph]
        )
        assert DgSpan(min_support=2)._may_be_frequent(
            one_graph + [Embedding(1, (0, 1))]
        )

    def test_min_support_one_keeps_every_child(self):
        sharing = [Embedding(0, (0, 1)), Embedding(0, (1, 2))]
        forward = [(Embedding(0, (0, 1)), 2), (Embedding(0, (1, 3)), 2)]
        for miner in (Edgar(min_support=1), DgSpan(min_support=1)):
            assert miner._may_be_frequent(sharing)
            assert miner._may_be_frequent(forward)
        # nothing is dropped before the canonical check either
        chain = DFG(labels=list("ABAB"), insns=[None] * 4,
                    edges={(0, 1, "d"), (1, 2, "d"), (2, 3, "d")},
                    dep_edges={(0, 1, "d"), (1, 2, "d"), (2, 3, "d")})
        telemetry.reset()
        telemetry.enable()
        try:
            fragments = Edgar(min_support=1).mine([chain])
            registry = telemetry.get()
            skips = registry.counter_value("mining.support_skips")
            checks = registry.counter_value("mining.canonical_checks")
        finally:
            telemetry.disable()
            telemetry.reset()
        assert fragments
        assert skips == 0 and checks > 0

    @settings(max_examples=150, deadline=None)
    @given(dfgs=_random_dfgs(), min_support=st.integers(2, 3),
           max_embeddings=st.integers(1, 6),
           miner_cls=st.sampled_from([Edgar, DgSpan]))
    def test_every_dropped_child_is_infrequent(self, dfgs, min_support,
                                               max_embeddings, miner_cls):
        db = MiningDB(dfgs)
        miner = miner_cls(min_support=min_support, max_nodes=5,
                          max_embeddings=max_embeddings)
        real = miner._may_be_frequent
        dropped = []

        def recording(entries):
            kept = real(entries)
            if not kept:
                dropped.append(_embeddings_of(entries))
            return kept

        miner._may_be_frequent = recording
        miner.mine(dfgs)
        for embeddings in dropped:
            # the whole list, and the prefix the search would truncate to
            for kept in (embeddings, embeddings[:max_embeddings]):
                unique = dedupe_by_node_set(
                    miner._filter_embeddings(db, None, kept)
                )
                assert not miner._is_frequent(db, unique)

    @settings(max_examples=150, deadline=None)
    @given(dfgs=_random_dfgs(), min_support=st.integers(1, 3),
           miners=st.sampled_from([(Edgar, ReferenceEdgar),
                                   (DgSpan, ReferenceDgSpan)]))
    def test_random_dfgs_mine_as_the_reference(self, dfgs, min_support,
                                               miners):
        fast, reference = (
            cls(min_support=min_support, max_nodes=5) for cls in miners
        )
        assert fast.mine(dfgs) == reference.mine(dfgs)
        assert fast.visited_nodes == reference.visited_nodes


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
