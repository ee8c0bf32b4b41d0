"""Layer tracer: times repro's layers from outside the package.

A :class:`Tracer` wraps each layer's public entry points in a timing
shim for the duration of a ``with`` block and restores the originals on
exit.  Nothing under ``src/`` is edited.  Because ``pa/driver.py``,
``scale/shard.py`` and friends import these functions by name, a
module-level function is replaced on *every* loaded ``repro.*`` module
attribute bound to the same function object, not only where it is
defined.  Methods (``Class.method``) are replaced on their class.

Self time is a span's duration minus the time of the wrapped spans it
contains, so when the outermost entry point (``run_pa``/``run_sfx``) is
itself wrapped, the layers' self times sum to its traced duration.

An entry point that no longer exists (a later refactor renamed it) is
skipped, not an error: :func:`missing_entries` names it, and the caller
reports that layer as ``null`` with a warning.
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

#: Maps an entry point's return value to the number it adds to its
#: layer's ``counted`` tally.
CountHook = Callable[[Any], int]


@dataclass(frozen=True)
class Entry:
    """One wrapped entry point, ``"module:qualname"``."""

    target: str
    #: When set, the entry point's calls are the denominator
    #: (``judged``) and the hook's values the numerator (``counted``)
    #: of the layer's extra metric.
    count: Optional[CountHook] = None


@dataclass(frozen=True)
class Layer:
    """A pipeline layer: a name and the entry points that make it up."""

    name: str
    entries: Tuple[Entry, ...]
    #: Extra metric ``(suffix, kind, better)`` beside ``self_s`` and
    #: ``calls``: kind ``"ratio"`` reports counted/judged, ``"count"``
    #: the counted total, e.g. ``("accept_ratio", "ratio", "higher")``.
    extra: Optional[Tuple[str, str, str]] = None
    #: Report ``<name>.calls``; off where the count says nothing (one
    #: call per run, or a mix of unrelated entry points).
    report_calls: bool = True


@dataclass
class LayerStats:
    """What one layer did inside one tracer session."""

    self_s: float = 0.0
    calls: int = 0
    judged: int = 0
    counted: int = 0


@dataclass
class Tracer:
    """Wraps *layers* while active; tallies land in :attr:`stats`."""

    layers: Tuple[Layer, ...]
    stats: Dict[str, LayerStats] = field(default_factory=dict)
    _patches: List[Tuple[Any, str, Any]] = field(default_factory=list)

    def __enter__(self) -> "Tracer":
        # the total duration of the finished top-level wrapped spans,
        # which a span's own duration replaces when it ends
        spans = [0.0]
        for layer in self.layers:
            stats = self.stats.setdefault(layer.name, LayerStats())
            for entry in layer.entries:
                self._install(entry, stats, spans)
        return self

    def __exit__(self, *exc_info: Any) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _install(self, entry: Entry, stats: LayerStats,
                 spans: List[float]) -> None:
        resolved = _resolve(entry.target)
        if resolved is None:
            return
        owner, attr, original = resolved
        wrapper = _timed(original, stats, spans, entry.count)
        if isinstance(owner, type):
            self._patch(owner, attr, wrapper)
            return
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro"
                                      or name.startswith("repro.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patch(module, key, wrapper)

    def _patch(self, owner: Any, attr: str, wrapper: Any) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)


def missing_entries(layer: Layer) -> List[str]:
    """The entry points of *layer* that cannot be resolved."""
    return [e.target for e in layer.entries if _resolve(e.target) is None]


def _resolve(target: str) -> Optional[Tuple[Any, str, Any]]:
    """``(owner, attribute, function)`` of *target*, or None if absent."""
    module_name, _, qualname = target.partition(":")
    try:
        owner: Any = importlib.import_module(module_name)
    except ImportError:
        return None
    *path, attr = qualname.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    function = vars(owner).get(attr)
    if not callable(function):
        return None
    return owner, attr, function


def _timed(function: Callable[..., Any], stats: LayerStats,
           spans: List[float], count: Optional[CountHook]
           ) -> Callable[..., Any]:
    clock = time.perf_counter

    @functools.wraps(function)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        before = spans[0]
        start = clock()
        try:
            result = function(*args, **kwargs)
        finally:
            elapsed = clock() - start
            stats.self_s += elapsed - (spans[0] - before)
            spans[0] = before + elapsed
            stats.calls += 1
        if count is not None:
            stats.judged += 1
            stats.counted += count(result)
        return result

    return wrapper
