"""The decision ledger: typed provenance records from the PA pipeline.

The ledger is a sink of the one event model
(:mod:`repro.telemetry.events`, which lists every record kind): an
append-only stream of plain dicts, each tagged with a ``type`` and
carrying the ambient context (round, mining pass, source) the pipeline
maintains around its phases.  The contract matches the telemetry
registry's:

1. **Off by default, inert when disabled.**  A disabled ledger is not
   attached, so emission sites reach it not at all; a disabled run
   records nothing and — asserted by ``tests/report`` — produces
   bit-identical binaries to an enabled run.
2. **Bounded.**  High-frequency record types (one legality verdict per
   mined fragment can mean tens of thousands of records on a real
   workload) are capped per type; drops are counted and reported in the
   ``run.end`` record rather than silently swallowed.
3. **Purely observational.**  Nothing reads the ledger back during a
   run; enabling it may cost time but never changes a result.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List

from repro.resilience.atomicio import atomic_write_text
from repro.resilience.faultinject import fault
from repro.telemetry import events

#: Version tag of the ledger JSONL schema.  /2 dropped the record
#: types ``scale.retry`` and ``scale.quarantine``, ``workers`` from
#: ``run.begin``'s config and from ``scale.round``, ``scale.round``'s
#: ``stragglers``/``retries``/``fallbacks``/``quarantined`` and
#: ``scale.shard``'s ``quarantined``.
LEDGER_SCHEMA = "repro.report.ledger/2"

#: Per-type record caps.  ``legality`` fires once per classified mined
#: fragment and ``mis`` once per overlap resolution — tens of thousands
#: of records on real workloads; the driver-level types are naturally
#: bounded by the candidate funnel and stay uncapped.
DEFAULT_CAPS: Dict[str, int] = {
    "legality": 1_000,
    "mis": 4_000,
    "candidate": 4_000,
}


class Ledger(events.Sink):
    """An append-only stream of typed decision records.

    The pipeline is sequential; the ledger deliberately has no lock.
    (The telemetry registry, which *is* shared across the simulator's
    helper threads, keeps one — nothing here runs off the main thread.)
    """

    def __init__(self) -> None:
        self.enabled = False
        self.kinds = events.LEDGER_KINDS
        self.records: List[Dict[str, Any]] = []
        self.dropped: Dict[str, int] = {}
        self.caps: Dict[str, int] = dict(DEFAULT_CAPS)
        self._counts: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True
        events.attach(self)

    def disable(self) -> None:
        self.enabled = False
        events.detach(self)

    def reset(self) -> None:
        """Drop all records (the enabled flag is preserved)."""
        self.records = []
        self.dropped = {}
        self._counts = {}

    # ------------------------------------------------------------------
    # the sink
    # ------------------------------------------------------------------
    def take(self, kind: str, record: Dict[str, Any]) -> None:
        """Append one record of type *kind*, unless its cap is full."""
        cap = self.caps.get(kind)
        count = self._counts.get(kind, 0)
        if cap is not None and count >= cap:
            self.dropped[kind] = self.dropped.get(kind, 0) + 1
            return
        self._counts[kind] = count + 1
        entry: Dict[str, Any] = {"type": kind}
        entry.update(record)
        if kind == "run.end":
            entry["dropped"] = dict(self.dropped)
        self.records.append(entry)

    # ------------------------------------------------------------------
    # access
    # ------------------------------------------------------------------
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


#: The process-global ledger the CLI attaches.
GLOBAL = Ledger()


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
