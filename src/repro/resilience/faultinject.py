"""Deterministic fault injection at the pipeline's seams.

A *fault point* is a named call site at a subsystem boundary —
``fault("mis.solve")`` — that is inert unless explicitly armed.  Arming
is deterministic: a spec names the point, the failure *mode* and the
1-based hit at which it fires, so a chaos test reproduces exactly.

Specs have the form ``point[:mode[:at]]`` (CLI ``--fault``, repeatable,
or the ``REPRO_FAULT`` environment variable, comma-separated):

========= ===========================================================
mode      effect when the armed hit is reached
========= ===========================================================
raise     raise :class:`~repro.resilience.errors.FaultInjected`
          (the typed crash; CLI exit 4)
interrupt raise ``KeyboardInterrupt`` (the mid-round Ctrl-C; the
          driver must roll back or complete the round atomically)
deadline  force-expire the active governor's budget (simulated
          wall-clock exhaustion; the run must degrade, not die)
corrupt   no exception — ``fault()`` returns ``"corrupt"`` and the
          site applies a site-specific corruption (the checkpoint
          writer garbles its payload bytes before the atomic write)
========= ===========================================================

``at=0`` means "every hit from the first on" (used to exhaust the
verify-recovery retries).  Unknown point names are rejected at arm
time so a typo cannot silently disarm a chaos run.

Fault-point catalogue
---------------------
=================== =================================================
point               boundary
=================== =================================================
mine.pass           DgSpan/Edgar, entry of one mining pass
mine.search         DgSpan/Edgar, per lattice node expanded
mine.filter         Edgar, PA-specific embedding filter
mis.solve           MIS solver, entry of one overlap resolution
extract.apply       driver, before a round's batch application
extract.candidate   extractor, per candidate inside the batch (fires
                    *between* rewrites — the half-applied-round case)
verify.round        translation validator, entry
verify.counterexample
                    translation validator — forge an equivalence
                    counterexample for the first rewritten block
ledger.write        decision-ledger JSONL writer
checkpoint.write    checkpoint writer (supports ``corrupt``)
checkpoint.load     checkpoint loader
scale.pool          sharded engine, entry of one round's shard
                    mining (after the cache lookup)
scale.progress      progress bus, event dispatch (the bus must
                    degrade to broken — mining never dies because
                    its progress feed did)
=================== =================================================
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Dict, List, Optional

from repro.resilience import governor as _governor
from repro.resilience.errors import FaultInjected

FAULT_POINTS = frozenset({
    "mine.pass",
    "mine.search",
    "mine.filter",
    "mis.solve",
    "extract.apply",
    "extract.candidate",
    "verify.round",
    "verify.counterexample",
    "ledger.write",
    "checkpoint.write",
    "checkpoint.load",
    "scale.pool",
    "scale.progress",
})

_MODES = ("raise", "interrupt", "deadline", "corrupt")

#: environment variable holding comma-separated arm specs
ENV_VAR = "REPRO_FAULT"


@dataclass
class FaultSpec:
    point: str
    mode: str = "raise"
    at: int = 1          #: 1-based hit to fire on; 0 = every hit
    hits: int = 0
    fired: int = 0


#: armed specs by point; empty = fully inert (the common case)
_ARMED: Dict[str, FaultSpec] = {}


def arm(spec: str) -> FaultSpec:
    """Arm one ``point[:mode[:at]]`` spec; returns the parsed spec."""
    parts = spec.split(":")
    point = parts[0]
    if point not in FAULT_POINTS:
        raise ValueError(
            f"unknown fault point {point!r} "
            f"(known: {', '.join(sorted(FAULT_POINTS))})"
        )
    mode = parts[1] if len(parts) > 1 and parts[1] else "raise"
    if mode not in _MODES:
        raise ValueError(
            f"unknown fault mode {mode!r} (known: {', '.join(_MODES)})"
        )
    at = int(parts[2]) if len(parts) > 2 else 1
    parsed = FaultSpec(point=point, mode=mode, at=at)
    _ARMED[point] = parsed
    return parsed


def arm_from_env(environ=os.environ) -> List[FaultSpec]:
    """Arm every spec in ``REPRO_FAULT`` (comma-separated), if set."""
    value = environ.get(ENV_VAR, "").strip()
    if not value:
        return []
    return [arm(part.strip()) for part in value.split(",")
            if part.strip()]


def disarm_all() -> None:
    _ARMED.clear()


def armed_points() -> List[str]:
    return sorted(_ARMED)


def fault(point: str) -> Optional[str]:
    """One fault point.  Inert (and near-free) unless *point* is armed.

    Returns the mode string when the point fires in a non-raising mode
    (``deadline``, ``corrupt``) so the site can apply the site-specific
    effect; raises for ``raise``/``interrupt``; returns None otherwise.
    """
    if not _ARMED:
        return None
    spec = _ARMED.get(point)
    if spec is None:
        return None
    spec.hits += 1
    if spec.at != 0 and spec.hits != spec.at:
        return None
    spec.fired += 1
    if spec.mode == "raise":
        raise FaultInjected(f"injected fault at {point} "
                            f"(hit {spec.hits})")
    if spec.mode == "interrupt":
        raise KeyboardInterrupt(f"injected interrupt at {point}")
    if spec.mode == "deadline":
        _governor.current().force_expire()
        return "deadline"
    return spec.mode
