"""The scale engine's determinism gate, on all eight workloads: a cold
and a warm fragment cache must produce byte-identical modules and
identical extraction records.

This is the invariant that lets a round reuse every shard the last
round left untouched: the cache changes nothing but wall-clock.
"""

import pytest

from repro.pa.driver import PAConfig, run_pa
from repro.scale.cache import FragmentCache
from repro.workloads import PROGRAMS, compile_workload


def _config():
    # max_nodes=4 keeps the 8-workload sweep inside the tier-1 budget;
    # the sharding/caching/merge paths are depth-independent.
    return PAConfig(max_nodes=4)


def run_with_cache(monkeypatch, cache, module, config):
    """``run_pa`` with *cache* as its fragment cache: ``run_pa`` builds
    its cache through the ``repro.scale.cache`` module, so two runs
    handed the same object share it (cold, then warm)."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.scale.cache.FragmentCache", lambda: cache)
        return run_pa(module, config)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_cache_state_does_not_change_the_result(name, monkeypatch):
    shared = FragmentCache()

    cold = compile_workload(name)
    rc = run_with_cache(monkeypatch, shared, cold, _config())

    warm = compile_workload(name)
    rw = run_with_cache(monkeypatch, shared, warm, _config())

    assert cold.render() == warm.render(), (
        f"{name}: cold-cache and warm-cache modules differ"
    )
    key = lambda r: [(x.round, x.method, x.size, x.occurrences,
                      x.new_symbol) for x in r.records]
    assert key(rc) == key(rw)
    assert rc.saved == rw.saved
    # the cold run mined; the warm run was served every shard
    assert rc.cache_misses > 0 and rc.lattice_nodes > 0
    assert rw.cache_misses == 0
    assert rw.lattice_nodes == 0
    assert rw.cache_hits == rc.cache_hits + rc.cache_misses
    assert rw.lattice_nodes_reused == (rc.lattice_nodes
                                       + rc.lattice_nodes_reused)
