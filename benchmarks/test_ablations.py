"""Ablations of the design choices DESIGN.md calls out.

Each ablation runs on a small but representative workload subset so the
whole file stays in benchmark-budget territory.
"""

import pytest

from repro.dfg.graph import FLOW_KINDS, MINED_KINDS
from repro.pa.canonical import fuzzy_potential
from repro.pa.driver import PAConfig, run_pa
from repro.pa.sfx import run_sfx
from repro.workloads import compile_workload, verify_workload

ABLATION_WORKLOADS = ("crc", "dijkstra")


def _edgar(name, **overrides):
    module = compile_workload(name)
    overrides.setdefault("time_budget", 120.0)
    result = run_pa(module, PAConfig(miner="edgar", **overrides))
    verify_workload(name, module)
    return result


class TestAblationMIS:
    """Exact Kumlander-style MIS vs the greedy heuristic."""

    def test_greedy_mis(self, benchmark):
        results = {}
        for name in ABLATION_WORKLOADS:
            exact = _edgar(name)
            greedy = benchmark.pedantic(
                lambda n=name: _edgar(n, mis_exact_limit=0),
                rounds=1, iterations=1,
            ) if name == ABLATION_WORKLOADS[0] else _edgar(
                name, mis_exact_limit=0
            )
            results[name] = (exact.saved, greedy.saved)
        print()
        for name, (exact, greedy) in results.items():
            print(f"{name:10s} exact MIS saved={exact:4d} "
                  f"greedy MIS saved={greedy:4d}")
        for name, (exact, greedy) in results.items():
            # the greedy heuristic may lose occurrences, never gain
            # more than noise from different tie-breaking
            assert greedy <= exact + 2, name


class TestAblationPAPruning:
    """Edgar's PA-specific embedding pruning: same result, same or
    smaller lattice."""

    def test_pa_pruning(self, benchmark):
        name = "crc"
        with_pruning = benchmark.pedantic(
            lambda: _edgar(name, pa_pruning=True), rounds=1, iterations=1
        )
        without = _edgar(name, pa_pruning=False)
        print(f"\npruning on:  saved={with_pruning.saved} "
              f"lattice={with_pruning.lattice_nodes}")
        print(f"pruning off: saved={without.saved} "
              f"lattice={without.lattice_nodes}")
        assert with_pruning.saved == without.saved
        assert with_pruning.lattice_nodes <= without.lattice_nodes


class TestAblationScheduler:
    """§4.2's rijndael explanation: scheduling-induced reordering is
    what blinds the suffix trie; graph PA is immune."""

    def test_scheduler(self, benchmark):
        name = "sha"

        def gap(schedule: bool):
            module = compile_workload(name, schedule=schedule)
            sfx_module = compile_workload(name, schedule=schedule)
            edgar = run_pa(module, PAConfig(miner="edgar",
                                            time_budget=120.0))
            verify_workload(name, module)
            sfx = run_sfx(sfx_module)
            verify_workload(name, sfx_module)
            return edgar.saved, sfx.saved

        scheduled = benchmark.pedantic(
            lambda: gap(True), rounds=1, iterations=1
        )
        unscheduled = gap(False)
        print(f"\nscheduler on:  edgar={scheduled[0]} sfx={scheduled[1]}")
        print(f"scheduler off: edgar={unscheduled[0]} sfx={unscheduled[1]}")
        # the scheduler must never push graph PA below the baseline
        assert scheduled[0] >= scheduled[1]
        # relative to SFX, Edgar's standing is at least as good under
        # scheduling as without it (reordering hurts only the trie)
        assert scheduled[0] - scheduled[1] >= unscheduled[0] - unscheduled[1]


class TestAblationFlowPass:
    """The full dependence graph vs its data-flow projection alone.

    Every fragment of the projection is a fragment of the full graph,
    with the same embeddings, so the one full-graph pass the engine
    runs saves at least what mining the projection alone saves."""

    def test_full_graph_subsumes_projection(self, benchmark):
        name = "crc"
        full = benchmark.pedantic(lambda: _edgar(name), rounds=1,
                                  iterations=1)
        flow_only = _edgar(name, mined_kinds=FLOW_KINDS)
        print(f"\nfull graph:     saved={full.saved} "
              f"lattice={full.lattice_nodes}")
        print(f"data-flow only: saved={flow_only.saved} "
              f"lattice={flow_only.lattice_nodes}")
        assert full.saved >= flow_only.saved


class TestAblationBatch:
    """Batched rounds vs the paper's strict one-extraction-per-round."""

    def test_batch(self, benchmark):
        name = "dijkstra"
        batched = benchmark.pedantic(
            lambda: _edgar(name, batch=True), rounds=1, iterations=1
        )
        strict = _edgar(name, batch=False)
        print(f"\nbatched: saved={batched.saved} rounds={batched.rounds}")
        print(f"strict:  saved={strict.saved} rounds={strict.rounds}")
        assert batched.rounds <= strict.rounds
        assert abs(batched.saved - strict.saved) <= 3


class TestAblationCanonical:
    """Fuzzy canonical matching (paper §5 future work, Fig. 13)."""

    def test_canonical(self, benchmark):
        module = compile_workload("qsort")
        report = benchmark.pedantic(
            lambda: fuzzy_potential(module, max_nodes=5),
            rounds=1, iterations=1,
        )
        print(f"\nexact-match best benefit: {report.exact_best}")
        print(f"canonical-match best benefit: {report.fuzzy_best}")
        print(f"additional fuzzy potential: {report.additional_potential}")
        # canonical matching can only reveal more duplication
        assert report.fuzzy_best >= report.exact_best
        assert report.fuzzy_fragments >= report.exact_fragments
