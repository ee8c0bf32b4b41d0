"""Incremental re-mining across rounds: the fragment cache's hits and
misses are the round-over-round delta.  A shard is re-mined if and only
if its payload digest is new, whatever its position in the shard list,
and a real extraction leaves most shards' digests (and cache entries)
intact."""

from repro.dfg.builder import build_dfgs
from repro.pa.driver import PAConfig, run_pa
from repro.pa.legality import sp_fragile_functions
from repro.pa.liveness import lr_live_out_blocks
from repro.resilience.governor import RunGovernor
from repro.scale.cache import FragmentCache
from repro.scale.cluster import cluster_dfgs
from repro.scale.pool import run_sharded_round
from repro.scale.shard import ShardResult, build_payload
from repro.workloads import compile_workload


def _digests(module, config):
    dfgs = build_dfgs(module, min_nodes=0, mined_kinds=config.mined_kinds)
    lr_live = lr_live_out_blocks(module)
    fragile = sp_fragile_functions(module)
    return [
        build_payload(shard, dfgs, lr_live, fragile, config).digest()
        for shard in cluster_dfgs(dfgs)
    ]


def _round(cache, digests):
    """Look every digest up the way a sharded round does; store the
    misses.  Returns the (hit, missed) shard indices."""
    hit, missed = [], []
    for index, digest in enumerate(digests):
        if cache.get(digest) is not None:
            hit.append(index)
        else:
            missed.append(index)
            cache.put(digest, ShardResult())
    return hit, missed


def test_first_plan_is_initial_and_all_dirty():
    cache = FragmentCache()
    hit, missed = _round(cache, ["d1", "d2", "d3"])
    assert hit == []
    assert missed == [0, 1, 2]
    assert len(cache) == 3


def test_unchanged_digests_are_clean():
    cache = FragmentCache()
    assert _round(cache, ["d1", "d2", "d3"]) == ([], [0, 1, 2])
    hit, missed = _round(cache, ["d1", "d2", "d3"])
    assert hit == [0, 1, 2]
    assert missed == []
    assert len(cache) == 3


def test_changed_subset_is_dirty_regardless_of_position():
    cache = FragmentCache()
    _round(cache, ["d1", "d2", "d3"])
    # d2 rewritten to d9, d3 moved to index 1: position is not identity
    hit, missed = _round(cache, ["d1", "d3", "d9"])
    assert hit == [0, 1]
    assert missed == [2]


def test_extraction_invalidates_only_touched_shards():
    """After one extraction on crc most shards hit the cache and some
    miss: only the shards holding rewritten blocks are re-mined.  The
    extraction also renumbers blocks, so a hit does not depend on a
    shard's position."""
    config = PAConfig(max_nodes=4)
    module = compile_workload("crc")
    before = _digests(module, config)
    cache = FragmentCache()
    run_sharded_round(module, config, RunGovernor(), cache)
    result = run_pa(module, PAConfig(max_nodes=4, max_rounds=1))
    assert result.rounds == 1 and result.records
    after = _digests(module, config)
    assert set(before) & set(after), \
        "an extraction must not rewrite every block"
    # and something did change (the new pa_* function, rewritten sites)
    assert set(after) != set(before)
    __, stats = run_sharded_round(module, config, RunGovernor(), cache)
    assert stats.cache_hits + stats.cache_misses == stats.shards
    assert stats.cache_misses, "the rewritten blocks must be re-mined"
    assert stats.cache_hits > stats.cache_misses
