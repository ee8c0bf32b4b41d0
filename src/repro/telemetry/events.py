"""One event model with many sinks.

Every fact the pipeline reports — a round ended, a fragment was
extracted, a shard finished — is recorded once, by one
:func:`emit` call, and fanned out to the sinks attached in the current
process.  Each sink picks the kinds it takes (its ``kinds`` set) and
shapes its own records:

``ledger``
    :class:`repro.report.ledger.Ledger` — the decision ledger: per-kind
    caps, ``records``, ``write_jsonl`` (schema
    ``repro.report.ledger/2``).  Records are ``{"type": kind, ...}``.
``events``
    :class:`repro.telemetry.progress.ProgressBus` — the live TTY line
    and the JSONL stream (schema ``repro.telemetry.events/3``).  It
    stamps ``ts`` and ``pid``; records are
    ``{"kind": kind, "ts": ..., "pid": ..., ...}``.
``stats``
    :class:`repro.telemetry.core.Telemetry` — the registry's event
    list, which feeds the stats JSON (schema
    ``repro.telemetry.stats/3``) and ``profile``'s shard table.
    Records are ``{"name": kind, ...}``, without the
    extraction's DOT renderings.  Spans, counters and histograms stay
    registry calls: they are metrics, not events.

Every record is the ambient :func:`context` (``round``, ``mine_pass``,
``source``) merged with the emitted fields, so the fields a fact shares
across sinks are equal by construction.  With no sink attached,
:func:`emit` returns after one check; a call site guards its field
building (:func:`wants`) only where that is costly.

Shards are mined one after another, in shard order, and emit straight
into the attached sinks like every other stage.  A :func:`recording`
scope keeps what is emitted inside it, so that the caller can emit it
again: the shard funnel replays a repeated decision's records this
way, and a mining round replays a cache-served shard's records.

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
mine.skips              L     mining round — rejections per funnel stage
                              and the scored total
prune                   L     mining round — never-convex, Fig. 9
                              cyclic (0 on all 8 bundled programs, see
                              DESIGN.md §5) and legality-prune cuts
scale.shard             L     mining round — per-shard census (its
                              distinct candidates among them)
scale.round             L     mining round — shard, cache (hits and
                              misses: the measured reuse), lattice
                              nodes mined and reused, the round's
                              distinct candidates
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
from typing import Any, Dict, FrozenSet, List, Tuple

#: Kinds the decision ledger takes.
LEDGER_KINDS = frozenset({
    "run.begin", "round.begin", "round.end", "mine.pass", "mine.skips",
    "prune", "legality", "legality.sp_fragile", "mis", "candidate",
    "extraction", "rewrite", "verify.round", "verify.lint",
    "verify.counterexample", "verify.retry", "checkpoint",
    "scale.shard", "scale.round", "scale.salvage", "run.degraded",
    "sanitize.counterexample",
    "variance.variant", "variance.summary", "run.end", "run.abort",
})

#: Kinds the live events stream takes.
EVENT_KINDS = frozenset({
    "round.begin", "round.end", "round.shards", "shard.start",
    "heartbeat", "shard.done", "run.end", "run.abort",
})

#: Kinds the telemetry registry's event list (stats JSON) takes.
STATS_KINDS = frozenset({
    "round.end", "extraction", "shard.done", "table1.row",
    "bench.engine_run",
})


class Sink:
    """Something :func:`emit` fans out to.

    ``kinds`` are the kinds it takes; ``omits`` names the fields it
    drops, which :func:`keeps` lets an emitter skip building.
    """

    kinds: FrozenSet[str] = frozenset()
    #: fields it drops from every record it takes
    omits: FrozenSet[str] = frozenset()

    def take(self, kind: str, record: Dict[str, Any]) -> None:
        """Store one event; *record* is shared between sinks, so copy
        before changing it."""
        raise NotImplementedError


_SINKS: List[Sink] = []
_UNSET = object()
_CONTEXT: Dict[str, Any] = {}
#: the open :func:`recording` scopes: each one's event list and the
#: context it was opened under
_RECORDINGS: List[Tuple[List[Tuple[str, Dict[str, Any]]],
                        Dict[str, Any]]] = []


def attach(sink: Sink) -> None:
    """Attach *sink* to this process's emissions (idempotent)."""
    if sink not in _SINKS:
        _SINKS.append(sink)


def detach(sink: Sink) -> None:
    if sink in _SINKS:
        _SINKS.remove(sink)


def wants(kind: str) -> bool:
    """Would an event of *kind* reach a sink?  The guard for call
    sites whose fields are costly to build."""
    if not _SINKS:
        return False
    return any(kind in sink.kinds for sink in _SINKS)


def keeps(kind: str, field: str) -> bool:
    """Would *field* of a *kind* event reach a sink that stores it?
    The guard for fields costly to build that some sinks drop."""
    return any(kind in sink.kinds and field not in sink.omits
               for sink in _SINKS)


def emit(kind: str, **fields) -> None:
    """Record one event of *kind*: the context merged with *fields*."""
    if not _SINKS:
        return
    sinks = [sink for sink in _SINKS if kind in sink.kinds]
    if not sinks:
        return
    for recorded, opened_under in _RECORDINGS:
        kept = {key: value for key, value in _CONTEXT.items()
                if opened_under.get(key, _UNSET) != value}
        kept.update(fields)
        recorded.append((kind, kept))
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
    its own fields, in the yielded list.  Of the context, an event
    keeps only the keys set inside the block.  Emitting them again
    replays the block's events under the context of the replay, with
    those inner keys restored."""
    recorded: List[Tuple[str, Dict[str, Any]]] = []
    _RECORDINGS.append((recorded, dict(_CONTEXT)))
    try:
        yield recorded
    finally:
        _RECORDINGS.pop()  # scopes nest


__all__ = [
    "EVENT_KINDS",
    "LEDGER_KINDS",
    "STATS_KINDS",
    "Sink",
    "attach",
    "context",
    "detach",
    "emit",
    "keeps",
    "recording",
    "wants",
]
