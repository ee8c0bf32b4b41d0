"""The scale engine's determinism gate, on all eight workloads: zero,
one and four workers, and cold cache vs warm persistent cache, must
produce byte-identical modules and identical extraction records.

This is the invariant that makes ``--workers``/``--fragment-cache``
safe to flip on anywhere: they change wall-clock, never the result.
"""

import pytest

from repro.pa.driver import PAConfig, run_pa
from repro.workloads import PROGRAMS, compile_workload


def _config(**overrides):
    # max_nodes=4 keeps the 8-workload sweep inside the tier-1 budget;
    # the sharding/caching/merge paths are depth-independent.
    return PAConfig(max_nodes=4, **overrides)


@pytest.mark.parametrize("name", sorted(PROGRAMS))
def test_workers_and_cache_state_do_not_change_the_result(
    name, tmp_path
):
    cachedir = str(tmp_path / "cache")

    w0 = compile_workload(name)
    r0 = run_pa(w0, _config(workers=0))

    w1 = compile_workload(name)
    r1 = run_pa(w1, _config(workers=1, fragment_cache=cachedir))

    w4 = compile_workload(name)
    r4 = run_pa(w4, _config(workers=4))

    warm = compile_workload(name)
    rw = run_pa(warm, _config(workers=1, fragment_cache=cachedir))

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
    if r1.rounds:
        # the warm run actually exercised the persistent cache
        assert rw.cache_hits > 0
