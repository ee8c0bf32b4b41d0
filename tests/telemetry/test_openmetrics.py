"""Per-shard timing families summed from ``shard.done`` events.

The OpenMetrics exporter that first rendered these families is gone;
the per-shard sums now live in ``repro.cli._shard_totals`` and feed
``profile``'s shard imbalance table.  These tests pin the sums."""

from repro.cli import _shard_totals
from repro.telemetry import Telemetry


class TestShardTimings:
    def test_per_shard_families(self):
        t = Telemetry()
        t.enable()
        for shard, seconds, nodes in ((0, 0.5, 10), (1, 1.5, 30),
                                      (0, 0.25, 5)):
            t.take("shard.done", {"shard": shard, "seconds": seconds,
                                  "lattice_nodes": nodes})
        seconds, nodes, rounds = _shard_totals(t)
        assert seconds == {0: 0.75, 1: 1.5}
        assert nodes == {0: 15, 1: 30}
        assert rounds == {0: 2, 1: 1}

    def test_other_events_ignored(self):
        t = Telemetry()
        t.enable()
        t.take("extraction", {"benefit": 5})
        t.take("shard.done", {"seconds": 1.0, "lattice_nodes": 4})
        assert _shard_totals(t) == ({}, {}, {})
