"""Fragment cache basics: an in-memory round trip, and key isolation."""

from repro.scale.cache import FragmentCache

BODY = {"candidates": [], "lattice_nodes": 7, "tallies": {}}
OTHER = {"candidates": [], "lattice_nodes": 9, "tallies": {}}
KEY = "a" * 64
KEY2 = "b" * 64


def test_memory_roundtrip():
    cache = FragmentCache()
    assert cache.get(KEY) is None
    cache.put(KEY, BODY)
    assert cache.get(KEY) == BODY
    assert len(cache) == 1


def test_keys_are_isolated():
    cache = FragmentCache()
    cache.put(KEY, BODY)
    cache.put(KEY2, OTHER)
    assert cache.get(KEY) == BODY
    assert cache.get(KEY2) == OTHER
    assert len(cache) == 2
