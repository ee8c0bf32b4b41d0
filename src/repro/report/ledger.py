"""The decision ledger: typed provenance records from the PA pipeline.

The ledger is a process-global, append-only stream of plain dicts, each
tagged with a ``type`` and merged with the ambient *context* (the round
number, the active mining pass) that the driver maintains around the
pipeline phases.  Pipeline modules emit through the module-global
:data:`GLOBAL` instance behind the same contract the telemetry registry
uses:

1. **Off by default, inert when disabled.**  Every emission site is
   guarded by a plain attribute check; a disabled run records nothing
   and — asserted by ``tests/report`` — produces bit-identical binaries
   to an enabled run.
2. **Bounded.**  High-frequency record types (one legality verdict per
   mined fragment can mean tens of thousands of records on a real
   workload) are capped per type; drops are counted and reported in the
   ``run.end`` record rather than silently swallowed.
3. **Purely observational.**  Nothing reads the ledger back during a
   run; enabling it may cost time but never changes a result.

Shard mining records into a :func:`capture` scope, in the parent and
in worker processes alike, and the parent replays the snapshots in
shard order, so a cold-cache run records the same stream for every
worker count >= 1.

Record types of schema ``repro.report.ledger/1`` (all fields additive;
consumers must ignore unknown fields):

========== ==========================================================
type       emitted by / contents
========== ==========================================================
run.begin  driver — schema tag, engine, config snapshot, instruction
           count before abstraction
round.begin / round.end
           driver — per-round instruction counts, candidates applied,
           instructions saved
mine.pass  miner — one record per mining pass (shallow / full):
           graphs, seeds, lattice nodes expanded, truncated branches,
           deadline hit
mine.skips mining round — per-round aggregate of candidate-rejection
           counts (benefit floor, illegality, lr-infeasibility, order
           inconsistency, unprofitability, verify-retry blocklist)
           plus the scored total
prune      mining round — per-round lattice pruning: the never-convex
           count, the Fig. 9 cyclic-dependency count and the legality
           prune's cut branches
legality   legality checker — one verdict per classified fragment:
           mechanism (call / crossjump / null) and surviving
           embeddings (capped)
mis        MIS solver — one record per overlap resolution: collision
           graph size, component census, exact-vs-greedy fallback,
           chosen set size (capped)
candidate  funnel — one record per candidate that reached the
           cost/benefit race: fragment labels, embedding counts at
           each funnel stage, MIS size and mode, benefit, verdict
           (scored / unprofitable / order_inconsistent /
           lr_infeasible)
extraction driver — one record per applied extraction: mechanism,
           size, occurrences, benefit, bytes saved, new symbol, body
           instructions, origins, and inline DOT renderings of the
           fragment, its host block (embedding highlighted) and the
           collision graph MIS solved
rewrite    extractor — low-level confirmation that a rewrite landed:
           mechanism, symbol, occurrence count
verify.round
           translation validator (``pa --verify``) — per-round
           summary: blocks checked / identical, lr exemptions, new
           symbols
verify.lint
           translation validator — a post-round lint regression; the
           error findings inline (the round is then aborted)
verify.counterexample
           translation validator — an equivalence failure: function,
           old/new block indices, the disagreeing resource, both
           symbolic terms, and both instruction listings (carries
           ``injected: true`` when forged by fault injection)
verify.retry
           driver — one verify-failure recovery step: the round was
           rolled back, the offending candidates blocklisted by
           canonical fingerprint, and the round re-mined
checkpoint driver — one crash-safe checkpoint written (round, path)
run.degraded
           driver — the run wound down early but cleanly: the
           degradation causes (time_budget / interrupted /
           verify_retries), rounds completed, instructions kept
run.abort  CLI boundary — a typed internal failure ended the run:
           error code, message
run.end    driver — rounds, saved instructions, elapsed seconds, and
           the per-type dropped-record census
========== ==========================================================
"""

from __future__ import annotations

import contextlib
import json
from typing import Any, Dict, List, Optional

from repro.resilience.atomicio import atomic_write_text
from repro.resilience.faultinject import fault

#: Version tag of the ledger JSONL schema.
LEDGER_SCHEMA = "repro.report.ledger/1"

#: Per-type record caps.  ``legality`` fires once per classified mined
#: fragment and ``mis`` once per overlap resolution — tens of thousands
#: of records on real workloads; the driver-level types are naturally
#: bounded by the candidate funnel and stay uncapped.
DEFAULT_CAPS: Dict[str, int] = {
    "legality": 1_000,
    "mis": 4_000,
    "candidate": 4_000,
}


class _NullContext:
    """Shared no-op context manager returned while the ledger is off."""

    __slots__ = ()

    def __enter__(self) -> "_NullContext":
        return self

    def __exit__(self, *exc) -> bool:
        return False


_NULL_CONTEXT = _NullContext()


class _LedgerContext:
    """Temporarily merges fields into the ledger's ambient context."""

    __slots__ = ("_ledger", "_fields", "_saved")

    def __init__(self, ledger: "Ledger", fields: Dict[str, Any]):
        self._ledger = ledger
        self._fields = fields

    def __enter__(self) -> "_LedgerContext":
        context = self._ledger._context
        self._saved = {
            key: context[key] for key in self._fields if key in context
        }
        context.update(self._fields)
        return self

    def __exit__(self, *exc) -> bool:
        context = self._ledger._context
        for key in self._fields:
            if key in self._saved:
                context[key] = self._saved[key]
            else:
                context.pop(key, None)
        return False


class Ledger:
    """An append-only stream of typed decision records.

    The pipeline is sequential; the ledger deliberately has no lock.
    (The telemetry registry, which *is* shared across the simulator's
    helper threads, keeps one — nothing here runs off the main thread.)
    """

    def __init__(self) -> None:
        self.enabled = False
        self.records: List[Dict[str, Any]] = []
        self.dropped: Dict[str, int] = {}
        self.caps: Dict[str, int] = dict(DEFAULT_CAPS)
        self._counts: Dict[str, int] = {}
        self._context: Dict[str, Any] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True

    def disable(self) -> None:
        self.enabled = False

    def reset(self) -> None:
        """Drop all records and context (the enabled flag is preserved)."""
        self.records = []
        self.dropped = {}
        self._counts = {}
        self._context = {}

    # ------------------------------------------------------------------
    # context
    # ------------------------------------------------------------------
    def context(self, **fields):
        """Context manager merging *fields* into every nested emission."""
        if not self.enabled:
            return _NULL_CONTEXT
        return _LedgerContext(self, fields)

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def emit(self, rtype: str, **fields) -> None:
        """Append one record of type *rtype*, merged with the context."""
        if not self.enabled:
            return
        cap = self.caps.get(rtype)
        count = self._counts.get(rtype, 0)
        if cap is not None and count >= cap:
            self.dropped[rtype] = self.dropped.get(rtype, 0) + 1
            return
        self._counts[rtype] = count + 1
        record: Dict[str, Any] = {"type": rtype}
        record.update(self._context)
        record.update(fields)
        self.records.append(record)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
    def replay(self, snapshot: Optional[Dict[str, Any]]) -> None:
        """Re-emit a :func:`capture` snapshot into this ledger.

        Each record is merged with the *current* context (the round)
        and counted against this ledger's caps; records the capture
        scope already dropped are added to :attr:`dropped`.  Replaying
        captures in a fixed order therefore keeps and drops exactly
        the records one uncaptured emission stream would have.
        """
        if snapshot is None or not self.enabled:
            return
        for record in snapshot["records"]:
            fields = dict(record)
            self.emit(fields.pop("type"), **fields)
        for rtype, count in snapshot["dropped"].items():
            self.dropped[rtype] = self.dropped.get(rtype, 0) + count

    def records_of(self, rtype: str) -> List[Dict[str, Any]]:
        return [r for r in self.records if r["type"] == rtype]

    def rounds(self) -> List[int]:
        """Distinct round numbers present, in order."""
        seen: List[int] = []
        for record in self.records:
            value = record.get("round")
            if value is not None and value not in seen:
                seen.append(value)
        return seen

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def write_jsonl(self, path: str) -> None:
        """Write the stream atomically — a crash mid-export can never
        leave a truncated (unparseable) JSONL behind."""
        fault("ledger.write")
        lines = [
            json.dumps(record, default=str) for record in self.records
        ]
        atomic_write_text(path, "\n".join(lines) + ("\n" if lines else ""))


def read_jsonl(path: str) -> List[Dict[str, Any]]:
    """Load a ledger stream written by :meth:`Ledger.write_jsonl`."""
    records = []
    with open(path) as handle:
        for line in handle:
            line = line.strip()
            if line:
                records.append(json.loads(line))
    return records


#: The process-global ledger all pipeline emission reports to.
GLOBAL = Ledger()


class Capture:
    """Handle yielded by :func:`capture`; ``snapshot`` is set on exit."""

    __slots__ = ("snapshot",)

    def __init__(self) -> None:
        self.snapshot: Optional[Dict[str, Any]] = None


@contextlib.contextmanager
def capture(enabled: bool = True):
    """Record into a fresh scope of the global ledger for the block.

    The ledger counterpart of :func:`repro.telemetry.remote.capture`:
    shard mining runs inside it, in the parent and in worker processes
    alike, and the parent replays each snapshot in shard order
    (:meth:`Ledger.replay`).  The scope starts with empty records, counts and
    context, so a snapshot is the same wherever it was taken; on exit
    the records and drop counts become ``snapshot`` (a plain picklable
    dict) and the previous state is restored untouched.  With
    ``enabled=False`` the block runs with the ledger off and no
    snapshot is taken.
    """
    ledger = GLOBAL
    saved = (ledger.enabled, ledger.records, ledger.dropped,
             ledger._counts, ledger._context)
    ledger.records, ledger.dropped, ledger._counts, ledger._context = \
        [], {}, {}, {}
    ledger.enabled = enabled
    holder = Capture()
    try:
        yield holder
    finally:
        if enabled:
            holder.snapshot = {"records": ledger.records,
                               "dropped": ledger.dropped}
        (ledger.enabled, ledger.records, ledger.dropped,
         ledger._counts, ledger._context) = saved


def get() -> Ledger:
    """The process-global :class:`Ledger`."""
    return GLOBAL


def enable() -> None:
    GLOBAL.enable()


def disable() -> None:
    GLOBAL.disable()


def reset() -> None:
    GLOBAL.reset()


def is_enabled() -> bool:
    return GLOBAL.enabled


def emit(rtype: str, **fields) -> None:
    GLOBAL.emit(rtype, **fields)
