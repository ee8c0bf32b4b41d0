"""One full-depth pass against the funnel that also mined the flow
projection.

The engine used to mine every round a second time on the data-flow
projection of each DFG, which keeps only the ``d``/``m``/``f`` edges.
The miners match connected subgraphs that need not be induced, and the
projection's edges are a subset of the full dependence graph's, so
every fragment of the projection is already a fragment of the full
graph, with the same embeddings: the second pass could only score
again what the full pass had scored.

The reference is the serial funnel of ``test_serial_reference`` with
that second pass: shallow, full, then flow over the round's blocks
rebuilt with only the data-flow edges mined.  A run of the engine must write the same module and the same
extraction records, collect the same candidates in every round once
exact repeats are dropped, and expand no more lattice nodes.
"""

import pytest

from repro.minicc.driver import compile_to_module
from repro.pa.driver import PAConfig, run_pa
from repro.scale import pool
from repro.variance.genprog import generate_source, sized_config
from repro.workloads import PROGRAMS, compile_workload
from tests.pa.test_serial_reference import reference_run


def _distinct(rounds):
    """Each round's ``(fingerprint, benefit, embeddings)`` list without
    exact repeats, first occurrences in order."""
    return [
        list(dict.fromkeys((f, b, tuple(e)) for f, b, e in candidates))
        for candidates in rounds
    ]


def _compile(program):
    if program.startswith("genprog-"):
        __, seed, size = program.split("-")
        source = generate_source(sized_config(int(seed), int(size)))
        return compile_to_module(source)
    return compile_workload(program)


def _check_subsumed(program, miner, max_nodes, monkeypatch):
    config = PAConfig(miner=miner, max_nodes=max_nodes)
    rounds = []
    real_round = pool.run_sharded_round

    def recording(*args, **kwargs):
        candidates, stats = real_round(*args, **kwargs)
        rounds.append([(c.fingerprint(), c.benefit, c.embeddings)
                       for c in candidates])
        return candidates, stats

    monkeypatch.setattr(pool, "run_sharded_round", recording)
    module = _compile(program)
    result = run_pa(module, config)

    reference = _compile(program)
    records, lattice_nodes, ref_rounds = reference_run(
        reference, config, flow_pass=True
    )
    assert result.saved > 0
    assert module.render() == reference.render()
    assert result.records == records
    assert _distinct(rounds) == _distinct(ref_rounds)
    assert result.lattice_nodes <= lattice_nodes


@pytest.mark.parametrize("program, miner, max_nodes", [
    ("crc", "edgar", 8),
    ("search", "edgar", 8),
    ("sha", "edgar", 5),
    ("crc", "dgspan", 8),
    ("genprog-1-300", "edgar", 8),
])
def test_full_pass_subsumes_the_flow_pass(program, miner, max_nodes,
                                          monkeypatch):
    _check_subsumed(program, miner, max_nodes, monkeypatch)


@pytest.mark.slow
@pytest.mark.parametrize("program", sorted(PROGRAMS))
def test_full_pass_subsumes_the_flow_pass_everywhere(program, monkeypatch):
    _check_subsumed(program, "edgar", 8, monkeypatch)
