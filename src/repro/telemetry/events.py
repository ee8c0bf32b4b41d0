"""One event model with many sinks.

Every fact the pipeline reports — a round ended, a fragment was
extracted, a shard finished — is recorded once, by one
:func:`emit` call, and fanned out to the sinks attached in the current
process.  Each sink picks the kinds it takes (its ``kinds`` set) and
shapes its own records:

``ledger``
    :class:`repro.report.ledger.Ledger` — the decision ledger: per-kind
    caps, ``records``, ``write_jsonl`` (schema
    ``repro.report.ledger/1``).  Records are ``{"type": kind, ...}``.
``events``
    :class:`repro.telemetry.progress.ProgressBus` in the parent, a
    bounded queue to it in a worker — the live TTY line, the JSONL
    stream (schema ``repro.telemetry.events/2``) and the straggler
    watchdog.  It stamps ``ts`` and ``pid``; records are
    ``{"kind": kind, "ts": ..., "pid": ..., ...}``.
``stats``
    :class:`repro.telemetry.core.Telemetry` — the registry's event
    list, which feeds the stats JSON (schema
    ``repro.telemetry.stats/3``), OpenMetrics and ``profile``'s shard
    table.  Records are ``{"name": kind, ...}``, without the
    extraction's DOT renderings.  Spans, counters and histograms stay
    registry calls: they are metrics, not events.

Every record is the ambient :func:`context` (``round``, ``mine_pass``,
``source``) merged with the emitted fields, so the fields a fact shares
across sinks are equal by construction.  With no sink attached,
:func:`emit` returns after one check; a call site guards its field
building (:func:`wants`) only where that is costly.

Shards record through one :func:`capture` scope, in the parent and in
worker processes alike: inside it the *ordered* sinks (ledger, stats)
are replaced by one buffer that takes their kinds, the stats registry
records its spans and metrics into isolated state, and the *live*
events sink keeps receiving.  The scope yields one snapshot of both;
the parent :func:`replay`\\ s each shard's snapshot in shard order, so
a cold-cache run records the same ledger, stats and metrics for every
worker count >= 1.  A :func:`recording` scope keeps what is emitted
inside it, so that the caller can emit it again: the shard funnel
replays a repeated decision's records this way.

Kinds (fields are additive; consumers must ignore unknown fields; L =
ledger, E = events, S = stats; "(capped)" = capped per run in the
ledger):

======================= ===== ==========================================
kind                    sinks emitted by — contents
======================= ===== ==========================================
run.begin               L     driver — schema tag, engine, config,
                              instructions before
round.begin             L E   driver — instructions
round.shards            E     mining round — shards, cache hits, to mine
shard.start             E     funnel — shard, blocks
heartbeat               E     funnel, rate-limited — funnel counts,
                              lattice nodes, best benefit
mine.pass               L     miner — per pass (shallow / full): graphs,
                              seeds, lattice nodes, truncated branches
legality                L     legality — one verdict per classified
                              fragment: mechanism, kept embeddings
                              (capped)
legality.sp_fragile     L     legality — an sp-fragile function's
                              evidence
mis                     L     MIS — one overlap resolution: collision
                              graph, components, exact vs greedy
                              (capped)
candidate               L     funnel — a candidate in the cost/benefit
                              race: labels, embeddings per stage, MIS,
                              benefit, verdict (capped)
shard.done              E S   funnel — shard, seconds, lattice nodes,
                              graphs, distinct candidates, deadline hit
shard.stalled           E     the events sink's watchdog — a shard
                              silent past ``stall_after`` (once)
scale.retry             L E   supervisor — a failed delivery: shard,
                              attempt, error, retried, backoff
scale.quarantine        L E   supervisor — an exhausted shard: attempts,
                              error, recovered by the serial fallback
mine.skips              L     mining round — rejections per funnel stage
                              and the scored total
prune                   L     mining round — never-convex, Fig. 9
                              cyclic (0 on all 8 bundled programs, see
                              DESIGN.md §5) and legality-prune cuts
scale.shard             L     mining round — per-shard census (its
                              distinct candidates among them)
scale.round             L     mining round — shard, cache (hits and
                              misses: the measured reuse), lattice
                              nodes mined and reused, retry census,
                              the round's distinct candidates
scale.salvage           L     mining round — salvaged and lost shards
extraction              L S   driver — one applied extraction:
                              mechanism, size, occurrences, benefit,
                              symbol, body, origins; the ledger also
                              keeps the DOT renderings, the stats drop
                              them
rewrite                 L     extractor — a rewrite landed
verify.round            L     validator — blocks checked / identical
verify.lint             L     validator — a post-round lint regression
verify.counterexample   L     validator — an equivalence failure
verify.retry            L     driver — rollback + blocklisted
                              fingerprints
round.end               L E S driver, once per round (also one that
                              applied nothing) — instructions, applied,
                              saved, lattice nodes, distinct candidates
checkpoint              L     driver — a checkpoint written
run.degraded            L     driver — causes, rounds, instructions
run.end                 L E   driver — rounds, instructions, saved,
                              extractions, elapsed, degraded (+ the
                              ledger's dropped census)
run.abort               L E   CLI boundary — error code, message
sanitize.counterexample L     CLI — new sanitizer finding kinds
variance.variant        L     variance harness — one variant
variance.summary        L     variance harness — the sweep
table1.row              S     ``table1`` — one cell
bench.engine_run        S     benchmark harness — one run
======================= ===== ==========================================
"""

from __future__ import annotations

import contextlib
from typing import Any, Dict, FrozenSet, List, Optional, Tuple

#: Kinds the decision ledger takes.
LEDGER_KINDS = frozenset({
    "run.begin", "round.begin", "round.end", "mine.pass", "mine.skips",
    "prune", "legality", "legality.sp_fragile", "mis", "candidate",
    "extraction", "rewrite", "verify.round", "verify.lint",
    "verify.counterexample", "verify.retry", "checkpoint",
    "scale.shard", "scale.retry", "scale.quarantine", "scale.round",
    "scale.salvage", "run.degraded", "sanitize.counterexample",
    "variance.variant", "variance.summary", "run.end", "run.abort",
})

#: Kinds the live events stream takes.
EVENT_KINDS = frozenset({
    "round.begin", "round.end", "round.shards", "shard.start",
    "heartbeat", "shard.done", "shard.stalled", "scale.retry",
    "scale.quarantine", "run.end", "run.abort",
})

#: Kinds the telemetry registry's event list (stats JSON) takes.
STATS_KINDS = frozenset({
    "round.end", "extraction", "shard.done", "table1.row",
    "bench.engine_run",
})


class Sink:
    """Something :func:`emit` fans out to.

    ``kinds`` are the kinds it takes; a *live* sink receives as events
    happen, in any process, while the others are *ordered*: inside a
    :func:`capture` scope their kinds are buffered and replayed in a
    fixed order.  ``caps`` bound a capture buffer per kind; ``omits``
    names the fields it drops, which :func:`keeps` lets an emitter
    skip building.
    """

    kinds: FrozenSet[str] = frozenset()
    live = False
    caps: Dict[str, int] = {}
    #: fields it drops from every record it takes
    omits: FrozenSet[str] = frozenset()

    def take(self, kind: str, record: Dict[str, Any]) -> None:
        """Store one event; *record* is shared between sinks, so copy
        before changing it."""
        raise NotImplementedError

    def take_dropped(self, kind: str, count: int) -> None:
        """*count* events of *kind* were dropped upstream (by a capture
        buffer's cap)."""


_SINKS: List[Sink] = []
_CONTEXT: Dict[str, Any] = {}
#: the event lists of the open :func:`recording` scopes
_RECORDINGS: List[List[Tuple[str, Dict[str, Any]]]] = []


def attach(sink: Sink) -> None:
    """Attach *sink* to this process's emissions (idempotent)."""
    if sink not in _SINKS:
        _SINKS.append(sink)


def detach(sink: Sink) -> None:
    if sink in _SINKS:
        _SINKS.remove(sink)


def detach_all() -> None:
    """Drop every sink and the context (a fresh worker process)."""
    _SINKS.clear()
    _CONTEXT.clear()


def wants(kind: str) -> bool:
    """Would an event of *kind* reach a sink?  The guard for call
    sites whose fields are costly to build."""
    if not _SINKS:
        return False
    return any(kind in sink.kinds for sink in _SINKS)


def keeps(kind: str, field: str) -> bool:
    """Would *field* of a *kind* event reach a sink that stores it?
    The guard for fields costly to build that some sinks drop.  A
    :func:`capture` buffer drops nothing, so inside one the answer
    errs towards building."""
    return any(kind in sink.kinds and field not in sink.omits
               for sink in _SINKS)


def emit(kind: str, **fields) -> None:
    """Record one event of *kind*: the context merged with *fields*."""
    if not _SINKS:
        return
    sinks = [sink for sink in _SINKS if kind in sink.kinds]
    if not sinks:
        return
    for recorded in _RECORDINGS:
        recorded.append((kind, fields))
    record = dict(_CONTEXT)
    record.update(fields)
    for sink in sinks:
        sink.take(kind, record)


@contextlib.contextmanager
def context(**fields):
    """Merge *fields* into every event emitted inside the block."""
    saved = dict(_CONTEXT)
    _CONTEXT.update(fields)
    try:
        yield
    finally:
        _CONTEXT.clear()
        _CONTEXT.update(saved)


@contextlib.contextmanager
def recording():
    """Keep the events the block emits to a sink, each as its kind and
    its own fields (without the context), in the yielded list.
    Emitting them again replays the block's events under the context
    of the replay."""
    recorded: List[Tuple[str, Dict[str, Any]]] = []
    _RECORDINGS.append(recorded)
    try:
        yield recorded
    finally:
        _RECORDINGS.pop()  # scopes nest


# ----------------------------------------------------------------------
# shard capture
# ----------------------------------------------------------------------
def capture_spec() -> Optional[Dict[str, Any]]:
    """What a :func:`capture` scope must record for the ordered sinks
    attached here (``None``: nothing).  ``metrics`` says whether the
    stats registry is among them, so the scope records its spans,
    counters, gauges and histograms too.  A plain picklable dict, so it
    crosses into worker processes."""
    from repro.telemetry.core import GLOBAL

    ordered = [sink for sink in _SINKS if not sink.live]
    if not ordered:
        return None
    kinds = frozenset().union(*(sink.kinds for sink in ordered))
    caps: Dict[str, int] = {}
    for sink in ordered:
        for kind, cap in sink.caps.items():
            caps[kind] = min(cap, caps.get(kind, cap))
    return {"kinds": kinds, "caps": caps, "metrics": GLOBAL in ordered}


class _Buffer(Sink):
    """A capture scope's stand-in for the ordered sinks; ``snapshot``
    is set when the scope exits."""

    def __init__(self, spec: Dict[str, Any]):
        self.kinds = spec["kinds"]
        self.caps = spec["caps"]
        self.records: List[Tuple[str, Dict[str, Any]]] = []
        self.dropped: Dict[str, int] = {}
        self._counts: Dict[str, int] = {}
        self.snapshot: Optional[Dict[str, Any]] = None

    def take(self, kind: str, record: Dict[str, Any]) -> None:
        count = self._counts.get(kind, 0)
        cap = self.caps.get(kind)
        if cap is not None and count >= cap:
            self.dropped[kind] = self.dropped.get(kind, 0) + 1
            return
        self._counts[kind] = count + 1
        self.records.append((kind, record))


@contextlib.contextmanager
def capture(spec: Optional[Dict[str, Any]]):
    """Record the block's events and metrics for a later :func:`replay`.

    The ordered sinks are detached for the block and, when *spec* (a
    :func:`capture_spec`) is given, the yielded buffer takes their
    kinds under their caps; live sinks stay attached.  The stats
    registry records into isolated state when ``spec["metrics"]`` and
    is silenced otherwise.  The scope starts with an empty context, so
    a snapshot is the same wherever it was taken — in the parent or in
    a worker.  When the block completes, the buffer's ``snapshot`` (a
    plain picklable dict; None without *spec*) is set; on any exit the
    previous sinks, context and registry state are restored.
    """
    from repro.telemetry.core import GLOBAL
    from repro.telemetry.remote import snapshot

    saved_sinks = list(_SINKS)
    saved_context = dict(_CONTEXT)
    buffer = _Buffer(spec or {"kinds": frozenset(), "caps": {}})
    metrics = spec is not None and spec["metrics"]
    _SINKS[:] = [sink for sink in saved_sinks if sink.live]
    if spec is not None:
        _SINKS.append(buffer)
    _CONTEXT.clear()
    try:
        with GLOBAL.isolated(metrics):
            yield buffer
            if spec is not None:
                buffer.snapshot = {
                    "records": buffer.records,
                    "dropped": buffer.dropped,
                    "metrics": snapshot(GLOBAL) if metrics else None,
                }
    finally:
        _SINKS[:] = saved_sinks
        _CONTEXT.clear()
        _CONTEXT.update(saved_context)


def replay(snapshot: Optional[Dict[str, Any]]) -> None:
    """Stitch a :func:`capture` snapshot into this process.

    The metrics merge into the stats registry
    (:func:`repro.telemetry.remote.merge_snapshot`), then each event is
    re-emitted to the ordered sinks, merged under the *current* context
    (the round) and meeting the sinks' own caps; the drops the capture
    buffer counted are passed on.  Replaying snapshots in a fixed order
    therefore keeps and drops exactly what one uncaptured stream would
    have.
    """
    if snapshot is None:
        return
    from repro.telemetry.core import GLOBAL
    from repro.telemetry.remote import merge_snapshot

    merge_snapshot(GLOBAL, snapshot["metrics"])
    ordered = [sink for sink in _SINKS if not sink.live]
    for kind, captured in snapshot["records"]:
        record = dict(_CONTEXT)
        record.update(captured)
        for sink in ordered:
            if kind in sink.kinds:
                sink.take(kind, record)
    for kind, count in snapshot["dropped"].items():
        for sink in ordered:
            if kind in sink.kinds:
                sink.take_dropped(kind, count)


__all__ = [
    "EVENT_KINDS",
    "LEDGER_KINDS",
    "STATS_KINDS",
    "Sink",
    "attach",
    "capture",
    "capture_spec",
    "context",
    "detach",
    "detach_all",
    "emit",
    "keeps",
    "recording",
    "replay",
    "wants",
]
