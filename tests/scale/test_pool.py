"""The sharded round engine: deterministic merge, governor-aware
stops with per-shard salvage, the ``scale.pool`` fault point, errors
that surface, and scale-mode driver semantics (counters populated,
checkpoint/resume continuity)."""

import pytest

from repro.dfg.builder import build_dfgs
from repro.pa.driver import PAConfig, run_pa
from repro.resilience import faultinject
from repro.resilience.checkpoint import load_checkpoint
from repro.resilience.faultinject import FaultInjected
from repro.resilience.governor import RunGovernor
from repro.scale.cache import FragmentCache
from repro.scale.pool import run_sharded_round
from repro.workloads import compile_workload


def test_round_is_deterministic_and_sorted():
    config = PAConfig(max_nodes=4)
    module = compile_workload("crc")
    first, stats = run_sharded_round(
        module, config, RunGovernor(), FragmentCache()
    )
    second, _ = run_sharded_round(
        module, config, RunGovernor(), FragmentCache()
    )
    assert [c.sort_key() for c in first] == sorted(
        c.sort_key() for c in first
    )
    assert [c.sort_key() for c in first] == \
        [c.sort_key() for c in second]
    assert stats.shards > 1
    assert stats.cache_misses == stats.shards


def test_cache_serves_second_round_identically():
    config = PAConfig(max_nodes=4)
    module = compile_workload("crc")
    cache = FragmentCache()
    cold, cold_stats = run_sharded_round(
        module, config, RunGovernor(), cache
    )
    warm, warm_stats = run_sharded_round(
        module, config, RunGovernor(), cache
    )
    assert warm_stats.cache_hits == warm_stats.shards
    assert warm_stats.cache_misses == 0
    assert warm_stats.lattice_nodes_reused > 0
    assert [c.sort_key() for c in cold] == [c.sort_key() for c in warm]


def test_expired_governor_salvages_cached_shards():
    """A governor that is already out of budget loses the un-mined
    shards but keeps every cache-served one — per-shard best-so-far."""
    config = PAConfig(max_nodes=4)
    module = compile_workload("crc")
    cache = FragmentCache()
    run_sharded_round(module, config, RunGovernor(), cache)

    expired = RunGovernor()
    expired.force_expire()
    assert expired.should_stop()
    candidates, stats = run_sharded_round(module, config, expired, cache)
    assert stats.cache_hits == stats.shards
    assert stats.shards_lost == 0
    assert candidates

    cold = RunGovernor()
    cold.force_expire()
    lost_candidates, lost_stats = run_sharded_round(
        module, config, cold, FragmentCache()
    )
    assert lost_stats.shards_lost == lost_stats.shards
    assert lost_candidates == []


def test_scale_pool_fault_rolls_back_atomically():
    faultinject.arm("scale.pool:raise")
    module = compile_workload("crc")
    before = module.render()
    with pytest.raises(FaultInjected):
        run_pa(module, PAConfig(max_nodes=4))
    assert module.render() == before


def test_scale_pool_deadline_degrades_cleanly():
    """``scale.pool:deadline`` force-expires the governor right before
    pool expansion: the round loses its shards, the run winds down as
    degraded best-so-far instead of crashing."""
    faultinject.arm("scale.pool:deadline")
    module = compile_workload("crc")
    result = run_pa(module, PAConfig(max_nodes=4))
    assert result.degraded
    assert "time_budget" in result.degraded_reasons
    assert result.saved == 0
    assert result.shards_lost > 0


def test_scale_pool_interrupt_salvages_best_so_far():
    """An interrupt during pool expansion of round 2 keeps round 1's
    committed extraction (anytime semantics, rolled-back round)."""
    faultinject.arm("scale.pool:interrupt:2")
    module = compile_workload("crc")
    result = run_pa(module, PAConfig(max_nodes=4))
    assert result.degraded
    assert "interrupted" in result.degraded_reasons
    assert result.rounds >= 1
    assert result.saved > 0
    assert result.rolled_back_rounds == 1


def test_funnel_error_propagates_and_rolls_back():
    """No shard error is absorbed: an error the funnel raises mid-shard
    rolls the round back and surfaces."""
    faultinject.arm("mine.pass:raise")
    module = compile_workload("crc")
    before = module.render()
    with pytest.raises(FaultInjected):
        run_pa(module, PAConfig(max_nodes=4))
    assert module.render() == before


def test_scale_counters_populated():
    module = compile_workload("crc")
    result = run_pa(module, PAConfig(max_nodes=4))
    assert result.shards > 1
    assert result.cache_misses > 0
    assert result.cache_hits > 0          # later rounds reuse shards
    assert result.lattice_nodes_reused > 0
    assert result.lattice_nodes > 0


def test_checkpoint_resume_restores_scale_counters(tmp_path):
    path = str(tmp_path / "ck.json")
    reference = compile_workload("crc")
    run_pa(reference, PAConfig(max_nodes=4))

    interrupted = compile_workload("crc")
    run_pa(interrupted, PAConfig(max_nodes=4, max_rounds=1,
                                 checkpoint_path=path))
    checkpoint = load_checkpoint(path)
    assert checkpoint.cache_misses > 0

    from repro.pa.driver import config_from_dict
    from repro.resilience.checkpoint import module_from_checkpoint

    resumed = module_from_checkpoint(checkpoint)
    config = config_from_dict(checkpoint.config)
    config.max_rounds = PAConfig().max_rounds
    config.checkpoint_path = None
    result = run_pa(resumed, config, resume=checkpoint)
    assert resumed.render() == reference.render()
    assert result.cache_misses >= checkpoint.cache_misses


def test_build_dfgs_shape_assumption():
    # the scale engine indexes candidates by position in this database;
    # pin the assumption that it is deterministic for a fixed module
    module = compile_workload("crc")
    first = build_dfgs(module, min_nodes=0)
    second = build_dfgs(module, min_nodes=0)
    assert [d.origin for d in first] == [d.origin for d in second]
