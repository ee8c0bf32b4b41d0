"""The content-addressed fragment cache.

Maps a shard payload digest (:meth:`~repro.scale.shard.ShardPayload.digest`)
to the mined :class:`~repro.scale.shard.ShardResult` body.  Two layers:

* an **in-memory** table, always on — this is
  what makes re-mining incremental *within* a run (round N+1 re-uses
  every shard round N left untouched);
* an optional **persistent directory** (``--fragment-cache DIR``),
  one JSON file per key written through the resilience atomic writer —
  this is what makes identical blocks never re-mine *across* runs.

Durability contract: a corrupted, truncated or version-mismatched
entry surfaces as a typed :class:`~repro.resilience.errors.CacheError`
from the strict loader; :meth:`FragmentCache.get` converts that into a
counted miss and deletes the bad file, so the shard is simply re-mined
and the entry rebuilt — never a crash, and never a silent stale reuse
(the key *is* the content, and the schema tag is checked on read).

Writes are equally non-fatal: an unwritable directory, ``ENOSPC`` or
``EACCES`` while persisting an entry must never crash a mine that
already succeeded.  The first write failure warns once, counts
``scale.cache.write_failed`` (and ``stats.write_failed``), and
degrades the cache to memory-only for the rest of the run — results
are unchanged, the next run simply starts cold.
"""

from __future__ import annotations

import json
import os
import sys
from dataclasses import dataclass
from typing import Any, Dict, Optional

from repro.resilience.atomicio import atomic_write_text
from repro.resilience.errors import CacheError
from repro.resilience.faultinject import fault
from repro.telemetry import GLOBAL as _TELEMETRY

#: Version tag of the persisted cache entry format.  A mismatch is an
#: invalid entry (rebuilt), not an error — old caches degrade to cold.
CACHE_SCHEMA = "repro.scale.cache/1"

#: Keys a persisted entry body must provide (shard result wire format).
_REQUIRED_BODY = ("candidates", "lattice_nodes", "tallies")


@dataclass
class CacheStats:
    """Hit/miss census of one cache instance (telemetry + bench)."""

    hits: int = 0
    misses: int = 0
    stores: int = 0
    invalid: int = 0          #: corrupt/truncated/mismatched entries
    memory_hits: int = 0
    disk_hits: int = 0
    #: persist failures (ENOSPC/EACCES/...); nonzero means the cache
    #: degraded to memory-only partway through the run
    write_failed: int = 0

    def as_dict(self) -> Dict[str, int]:
        return dict(self.__dict__)


class FragmentCache:
    """Content-addressed shard-result store (see module docstring)."""

    def __init__(self, directory: Optional[str] = None):
        self.directory = directory
        self._memory: Dict[str, Dict[str, Any]] = {}
        self.stats = CacheStats()
        if directory:
            try:
                os.makedirs(directory, exist_ok=True)
            except OSError as exc:
                self._persistence_failed(exc)

    def _persistence_failed(self, exc: OSError) -> None:
        """Degrade to memory-only for the rest of the run: warn once,
        count the failure, stop touching the directory."""
        self.stats.write_failed += 1
        self.directory = None
        _TELEMETRY.count("scale.cache.write_failed")
        print(f"warning: fragment-cache persistence disabled ({exc})",
              file=sys.stderr)

    # ------------------------------------------------------------------
    def _path(self, key: str) -> str:
        return os.path.join(self.directory, key + ".json")

    def load_entry(self, key: str) -> Dict[str, Any]:
        """Strictly load one persisted entry body; every failure typed.

        Raises :class:`CacheError` for a missing, unreadable, garbled,
        schema-mismatched, key-mismatched or field-incomplete entry.
        """
        if fault("scale.cache") == "corrupt":
            raise CacheError(f"injected cache corruption for {key[:12]}")
        path = self._path(key)
        try:
            with open(path) as handle:
                doc = json.load(handle)
        except FileNotFoundError:
            raise CacheError(f"no cache entry for {key[:12]}") from None
        except (OSError, ValueError) as exc:
            raise CacheError(
                f"unreadable cache entry {path}: {exc}"
            ) from exc
        if not isinstance(doc, dict) or doc.get("schema") != CACHE_SCHEMA:
            raise CacheError(
                f"{path}: unsupported cache schema "
                f"{doc.get('schema') if isinstance(doc, dict) else type(doc)}"
                f" (expected {CACHE_SCHEMA})"
            )
        if doc.get("key") != key:
            raise CacheError(
                f"{path}: entry key {str(doc.get('key'))[:12]}... does "
                f"not match its address (corrupt or misplaced entry)"
            )
        body = doc.get("result")
        if not isinstance(body, dict) or any(
            name not in body for name in _REQUIRED_BODY
        ):
            raise CacheError(f"{path}: cache entry body is incomplete")
        return body

    # ------------------------------------------------------------------
    def get(self, key: str) -> Optional[Dict[str, Any]]:
        """The stored body for *key*, or None (a counted miss).

        Invalid persisted entries are deleted and counted in
        ``stats.invalid`` — the caller re-mines and the subsequent
        :meth:`put` rebuilds the entry.
        """
        body = self._memory.get(key)
        if body is not None:
            self.stats.hits += 1
            self.stats.memory_hits += 1
            return body
        if self.directory and os.path.exists(self._path(key)):
            try:
                body = self.load_entry(key)
            except CacheError:
                self.stats.invalid += 1
                try:
                    os.unlink(self._path(key))
                except OSError:
                    pass
            else:
                self._memory[key] = body
                self.stats.hits += 1
                self.stats.disk_hits += 1
                return body
        self.stats.misses += 1
        return None

    def put(self, key: str, body: Dict[str, Any]) -> None:
        """Store *body* under *key* (write-through when persistent)."""
        self._memory[key] = body
        self.stats.stores += 1
        if self.directory:
            try:
                atomic_write_text(
                    self._path(key),
                    json.dumps(
                        {"schema": CACHE_SCHEMA, "key": key,
                         "result": body},
                        sort_keys=True,
                    ),
                )
            except OSError as exc:
                # a full/readonly disk must not fail the mine that
                # just succeeded — the entry stays in memory
                self._persistence_failed(exc)

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._memory)
