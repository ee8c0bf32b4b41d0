"""Metric primitives: counters, gauges, histograms.

All three are name-keyed aggregates held in a process-global registry
(:mod:`repro.telemetry.core`).  They are deliberately simple — plain
Python numbers behind one registry lock — because the PA pipeline is
CPU-bound and single-process; the interesting engineering constraint is
the *disabled* path (checked before any of this code runs), not the
enabled one.

========== ==========================================================
primitive  semantics
========== ==========================================================
Counter    monotonically accumulated total (``add``)
Gauge      last-write-wins sample (``set``)
Histogram  running aggregate of observations: count / total / min /
           max (mean is derived) plus nearest-rank p50/p90/p99 over a
           bounded, deterministically decimated sample reservoir
========== ==========================================================
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Union

Number = Union[int, float]

#: Reservoir bound for histogram percentiles.  When it fills, every
#: second sample is dropped and the keep-stride doubles — the survivors
#: are always the observations at indices ``0, s, 2s, ...``, so two
#: identical runs keep identical samples (no RNG, unlike the classic
#: random reservoir), at the cost of a recency-independent thinning.
MAX_SAMPLES = 4096


@dataclass
class Counter:
    """A monotonically increasing total."""

    value: Number = 0

    def add(self, amount: Number = 1) -> None:
        self.value += amount


@dataclass
class Gauge:
    """A last-write-wins sampled value."""

    value: Number = 0

    def set(self, value: Number) -> None:
        self.value = value


@dataclass
class Histogram:
    """Running summary of a stream of observations."""

    count: int = 0
    total: float = 0.0
    min: Optional[float] = None
    max: Optional[float] = None
    samples: List[float] = field(default_factory=list, repr=False)
    stride: int = field(default=1, repr=False)

    def observe(self, value: Number) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value
        if (self.count - 1) % self.stride == 0:
            self.samples.append(value)
            if len(self.samples) > MAX_SAMPLES:
                self.samples = self.samples[::2]
                self.stride *= 2

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile over the retained samples."""
        if not self.samples:
            return 0.0
        ordered = sorted(self.samples)
        rank = math.ceil(q / 100.0 * len(ordered))
        return ordered[max(0, min(rank, len(ordered)) - 1)]

    def as_dict(self) -> Dict[str, Number]:
        return {
            "count": self.count,
            "total": self.total,
            "min": self.min if self.min is not None else 0.0,
            "max": self.max if self.max is not None else 0.0,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }
