"""The scale engine's determinism gate, on all eight workloads: zero,
one and four workers, and a cold vs a warm fragment cache, must
produce byte-identical modules and identical extraction records.

This is the invariant that makes ``--workers`` safe to flip on
anywhere, and that lets a round reuse every shard the last round left
untouched: neither changes anything but wall-clock.
"""

import pytest

from repro.pa.driver import PAConfig, run_pa
from repro.scale.cache import FragmentCache
from repro.workloads import PROGRAMS, compile_workload


def _config(**overrides):
    # max_nodes=4 keeps the 8-workload sweep inside the tier-1 budget;
    # the sharding/caching/merge paths are depth-independent.
    return PAConfig(max_nodes=4, **overrides)


def run_with_cache(monkeypatch, cache, module, config):
    """``run_pa`` with *cache* as its fragment cache: ``run_pa`` builds
    its cache through the ``repro.scale.cache`` module, so two runs
    handed the same object share it (cold, then warm)."""
    with monkeypatch.context() as patch:
        patch.setattr("repro.scale.cache.FragmentCache", lambda: cache)
        return run_pa(module, config)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_workers_and_cache_state_do_not_change_the_result(
    name, monkeypatch
):
    shared = FragmentCache()

    w0 = compile_workload(name)
    r0 = run_pa(w0, _config(workers=0))

    w1 = compile_workload(name)
    r1 = run_with_cache(monkeypatch, shared, w1, _config(workers=1))

    w4 = compile_workload(name)
    r4 = run_pa(w4, _config(workers=4))

    warm = compile_workload(name)
    rw = run_with_cache(monkeypatch, shared, warm, _config(workers=1))

    assert w0.render() == w1.render(), (
        f"{name}: 0-worker and 1-worker modules differ"
    )
    assert w1.render() == w4.render(), (
        f"{name}: 1-worker and 4-worker modules differ"
    )
    assert w1.render() == warm.render(), (
        f"{name}: cold-cache and warm-cache modules differ"
    )
    key = lambda r: [(x.round, x.method, x.size, x.occurrences,
                      x.new_symbol) for x in r.records]
    assert key(r0) == key(r1) == key(r4) == key(rw)
    assert r0.saved == r1.saved == r4.saved == rw.saved
    # the cold run mined; the warm run was served every shard
    assert r1.cache_misses > 0 and r1.lattice_nodes > 0
    assert rw.cache_misses == 0
    assert rw.lattice_nodes == 0
    assert rw.cache_hits == r1.cache_hits + r1.cache_misses
    assert rw.lattice_nodes_reused == (r1.lattice_nodes
                                       + r1.lattice_nodes_reused)
