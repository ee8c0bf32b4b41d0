"""The content-addressed fragment cache.

Maps a shard payload digest (:meth:`~repro.scale.shard.ShardPayload.digest`)
to the :class:`~repro.scale.shard.ShardResult` that mining the shard
returned, kept as is: its shard-local candidates, tallies and the
decision records a hit replays.  One table lives for one run: it is
what makes re-mining incremental *within* the run — round N+1 re-uses
every shard round N left untouched.  Hits and misses are counted by
the round (:class:`~repro.scale.pool.ScaleStats`), not here.
"""

from __future__ import annotations

from typing import Dict, Optional

from repro.scale.shard import ShardResult


class FragmentCache:
    """In-memory shard-result store, keyed by payload digest."""

    def __init__(self) -> None:
        self._memory: Dict[str, ShardResult] = {}

    def get(self, key: str) -> Optional[ShardResult]:
        """The stored result for *key*, or None."""
        return self._memory.get(key)

    def put(self, key: str, result: ShardResult) -> None:
        """Store *result* under *key*."""
        self._memory[key] = result

    def __len__(self) -> int:
        return len(self._memory)
