"""The content-addressed fragment cache.

Maps a shard payload digest (:meth:`~repro.scale.shard.ShardPayload.digest`)
to the mined :class:`~repro.scale.shard.ShardResult` body
(:meth:`~repro.scale.shard.ShardResult.to_doc`).  One table lives for
one run: it is what makes re-mining incremental *within* the run —
round N+1 re-uses every shard round N left untouched.  Hits and
misses are counted by the round (:class:`~repro.scale.pool.ScaleStats`),
not here.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


class FragmentCache:
    """In-memory shard-result store, keyed by payload digest."""

    def __init__(self) -> None:
        self._memory: Dict[str, Dict[str, Any]] = {}

    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored body for *key*, or None."""
        return self._memory.get(key)

    def put(self, key: str, body: Dict[str, Any]) -> None:
        """Store *body* under *key*."""
        self._memory[key] = body

    def __len__(self) -> int:
        return len(self._memory)
