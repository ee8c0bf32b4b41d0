"""The telemetry registry: hierarchical spans + metrics + events.

Design constraints, in priority order:

1. **Near-zero overhead when disabled.**  Every public hook starts with
   a plain attribute check on the global :class:`Telemetry` instance;
   the disabled ``span()`` returns a shared no-op context manager, so
   instrumenting a hot loop costs one function call and one branch.
   The guard test in ``tests/telemetry`` asserts that a disabled run of
   the full PA pipeline is bit-identical to the uninstrumented seed.
2. **Thread safety.**  Span nesting is tracked per thread (a
   ``threading.local`` stack); finished spans and metric updates go
   through one registry lock.  Span records carry the originating
   thread id so the Chrome trace exporter can lay them out per track.
3. **Purely observational.**  Nothing here influences control flow of
   the instrumented code; enabling telemetry may slow a run down but
   must never change its result.

Usage::

    from repro import telemetry

    from repro.telemetry.events import emit

    telemetry.enable()
    with telemetry.span("pa.round", round=3):
        telemetry.count("mining.lattice_nodes")
        telemetry.observe("mining.support_check_seconds", dt)
    emit("extraction", method="call", benefit=7)

Events are not registry calls: the enabled registry is a sink of the
one event model (:mod:`repro.telemetry.events`) and keeps the kinds it
takes in ``events``, for the stats JSON.  It leaves an extraction's DOT
renderings to the ledger.
"""

from __future__ import annotations

import functools
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.telemetry import events as _events
from repro.telemetry.metrics import Counter, Gauge, Histogram, Number


@dataclass
class SpanRecord:
    """One finished span, as stored in the registry.

    ``start`` is in seconds relative to the registry epoch (the moment
    the registry was created or last reset); ``ident``/``parent`` are
    registry-unique serial numbers assigned at span *entry*, so a parent
    always has a smaller ident than its children even though it is
    recorded after them (children exit first).
    """

    ident: int
    parent: Optional[int]
    name: str
    start: float
    duration: float
    thread: int
    args: Dict[str, Any] = field(default_factory=dict)


class _NullSpan:
    """Shared no-op span returned while telemetry is disabled."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> bool:
        return False

    def set(self, **args) -> "_NullSpan":
        return self


NULL_SPAN = _NullSpan()


class _LiveSpan:
    """An open span; created by :meth:`Telemetry.span` when enabled."""

    __slots__ = ("_telemetry", "name", "args", "_ident", "_start")

    def __init__(self, telemetry: "Telemetry", name: str,
                 args: Dict[str, Any]):
        self._telemetry = telemetry
        self.name = name
        self.args = args

    def set(self, **args) -> "_LiveSpan":
        """Attach or update span arguments; chainable."""
        self.args.update(args)
        return self

    def __enter__(self) -> "_LiveSpan":
        self._ident = self._telemetry._enter_span()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc) -> bool:
        duration = time.perf_counter() - self._start
        self._telemetry._exit_span(self, duration)
        return False


class Telemetry(_events.Sink):
    """A registry of spans, counters, gauges, histograms and events."""

    kinds = _events.STATS_KINDS
    #: left to the ledger and the HTML report: an extraction's DOT
    #: renderings (tens of KB per run)
    omits = frozenset({"fragment_dot", "host_dot", "collision_dot"})

    def __init__(self) -> None:
        self.enabled = False
        self._lock = threading.Lock()
        self._local = threading.local()
        self._serial = 0
        self._epoch = time.perf_counter()
        self.spans: List[SpanRecord] = []
        self.counters: Dict[str, Counter] = {}
        self.gauges: Dict[str, Gauge] = {}
        self.histograms: Dict[str, Histogram] = {}
        self.events: List[Dict[str, Any]] = []

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def enable(self) -> None:
        self.enabled = True
        _events.attach(self)

    def disable(self) -> None:
        self.enabled = False
        _events.detach(self)

    def reset(self) -> None:
        """Drop all recorded data (the enabled flag is preserved)."""
        with self._lock:
            self._serial = 0
            self._epoch = time.perf_counter()
            self.spans = []
            self.counters = {}
            self.gauges = {}
            self.histograms = {}
            self.events = []
        # per-thread stacks restart lazily; only this thread's can be
        # cleared here, which is enough for the sequential pipeline
        self._local.stack = []

    # ------------------------------------------------------------------
    # spans
    # ------------------------------------------------------------------
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _enter_span(self) -> int:
        with self._lock:
            self._serial += 1
            ident = self._serial
        self._stack().append(ident)
        return ident

    def _exit_span(self, span: _LiveSpan, duration: float) -> None:
        stack = self._stack()
        ident = span._ident
        # tolerate interleaved exits (enable() mid-span): unwind to the
        # matching entry if present, else record as a root span
        if ident in stack:
            while stack and stack[-1] != ident:
                stack.pop()
            stack.pop()
        parent = stack[-1] if stack else None
        record = SpanRecord(
            ident=ident,
            parent=parent,
            name=span.name,
            start=span._start - self._epoch,
            duration=duration,
            thread=threading.get_ident(),
            args=span.args,
        )
        with self._lock:
            self.spans.append(record)

    def span(self, name: str, **args):
        """A context manager timing one hierarchical span."""
        if not self.enabled:
            return NULL_SPAN
        return _LiveSpan(self, name, args)

    def traced(self, name: Optional[str] = None, **static_args) -> Callable:
        """Decorator form of :meth:`span`."""

        def wrap(fn: Callable) -> Callable:
            label = name or fn.__qualname__

            @functools.wraps(fn)
            def inner(*a, **kw):
                if not self.enabled:
                    return fn(*a, **kw)
                with self.span(label, **static_args):
                    return fn(*a, **kw)

            return inner

        return wrap

    # ------------------------------------------------------------------
    # metrics
    # ------------------------------------------------------------------
    def count(self, name: str, amount: Number = 1) -> None:
        if not self.enabled:
            return
        with self._lock:
            counter = self.counters.get(name)
            if counter is None:
                counter = self.counters[name] = Counter()
            counter.add(amount)

    def gauge(self, name: str, value: Number) -> None:
        if not self.enabled:
            return
        with self._lock:
            gauge = self.gauges.get(name)
            if gauge is None:
                gauge = self.gauges[name] = Gauge()
            gauge.set(value)

    def observe(self, name: str, value: Number) -> None:
        if not self.enabled:
            return
        with self._lock:
            histogram = self.histograms.get(name)
            if histogram is None:
                histogram = self.histograms[name] = Histogram()
            histogram.observe(value)

    def take(self, kind: str, record: Dict[str, Any]) -> None:
        """Keep one event (an extraction, a round end) for the stats."""
        entry = {"name": kind}
        entry.update(record)
        for key in self.omits:
            entry.pop(key, None)
        with self._lock:
            self.events.append(entry)

    # ------------------------------------------------------------------
    def counter_value(self, name: str, default: Number = 0) -> Number:
        counter = self.counters.get(name)
        return counter.value if counter is not None else default


#: The process-global registry all instrumentation reports to.
GLOBAL = Telemetry()


def get() -> Telemetry:
    """The process-global :class:`Telemetry` registry."""
    return GLOBAL


def enable() -> None:
    GLOBAL.enable()


def disable() -> None:
    GLOBAL.disable()


def reset() -> None:
    GLOBAL.reset()


def is_enabled() -> bool:
    return GLOBAL.enabled


def span(name: str, **args):
    return GLOBAL.span(name, **args)


def traced(name: Optional[str] = None, **static_args) -> Callable:
    return GLOBAL.traced(name, **static_args)


def count(name: str, amount: Number = 1) -> None:
    GLOBAL.count(name, amount)


def gauge(name: str, value: Number) -> None:
    GLOBAL.gauge(name, value)


def observe(name: str, value: Number) -> None:
    GLOBAL.observe(name, value)
