"""Fragment cache basics: an in-memory round trip of the live result,
and key isolation."""

from repro.scale.cache import FragmentCache
from repro.scale.shard import ShardResult

BODY = ShardResult(lattice_nodes=7)
OTHER = ShardResult(lattice_nodes=9)
KEY = "a" * 64
KEY2 = "b" * 64


def test_memory_roundtrip():
    cache = FragmentCache()
    assert cache.get(KEY) is None
    cache.put(KEY, BODY)
    assert cache.get(KEY) is BODY
    assert len(cache) == 1


def test_keys_are_isolated():
    cache = FragmentCache()
    cache.put(KEY, BODY)
    cache.put(KEY2, OTHER)
    assert cache.get(KEY) is BODY
    assert cache.get(KEY2) is OTHER
    assert len(cache) == 2
