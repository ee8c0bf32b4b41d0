"""The run governor: one deadline/interrupt/budget object per run.

Before this layer the pipeline had three uncoordinated budget devices —
``DgSpan.deadline`` (a raw monotonic float), ``mis.EXPAND_BUDGET`` (a
node counter) and ``PAConfig.time_budget`` (a config knob the driver
converted into the first) — and no interrupt story at all.  The
governor unifies them:

* the driver creates one :class:`RunGovernor` per run and *activates*
  it (a process-global slot, mirroring the telemetry/ledger pattern, so
  deep call sites like the MIS branch-and-bound need no new threading
  through six signatures);
* the miners and the MIS solver poll :meth:`RunGovernor.should_stop`
  and unwind cleanly when it fires — partial results stay valid, which
  is what makes the run *anytime*;
* SIGINT/SIGTERM set a flag instead of raising mid-rewrite: the current
  round either completes or is rolled back atomically by the driver,
  and the run ends with the best-so-far module and exit 0.  A second
  SIGINT raises :class:`KeyboardInterrupt` for users who really mean
  it (the driver still rolls the round back before returning).

Degradation is never silent: every cause (deadline, interrupt, MIS
budget, verify retries) is recorded in :attr:`RunGovernor.reasons` and
surfaced as a ``run.degraded`` ledger record, ``PAResult`` fields and
telemetry counters.
"""

from __future__ import annotations

import contextlib
import signal
import time
from typing import Callable, Dict, List, Optional


class RunGovernor:
    """Deadline + interrupt + degradation bookkeeping for one run."""

    def __init__(self, time_budget: Optional[float] = None,
                 clock: Callable[[], float] = time.monotonic):
        self.clock = clock
        self.started = clock()
        self.deadline: Optional[float] = (
            self.started + time_budget if time_budget else None
        )
        #: set by the signal handlers (or :meth:`interrupt`); polled at
        #: every budget checkpoint
        self.interrupted = False
        #: degradation causes in first-seen order ("time_budget",
        #: "interrupted", "verify_retries", ...)
        self.reasons: List[str] = []
        #: cheap always-on counters (mis.budget_exhausted, ...)
        self.counters: Dict[str, int] = {}

    # ------------------------------------------------------------------
    # budget state
    # ------------------------------------------------------------------
    def expired(self) -> bool:
        return self.deadline is not None and self.clock() > self.deadline

    def should_stop(self) -> bool:
        """True once the run must wind down (deadline or interrupt)."""
        return self.interrupted or self.expired()

    def force_expire(self) -> None:
        """Spend the whole budget now (fault injection's 'deadline')."""
        self.deadline = self.clock() - 1.0

    def interrupt(self) -> None:
        self.interrupted = True

    # ------------------------------------------------------------------
    # degradation bookkeeping
    # ------------------------------------------------------------------
    def note(self, reason: str) -> None:
        """Record one degradation cause (idempotent per cause)."""
        if reason not in self.reasons:
            self.reasons.append(reason)

    def count(self, name: str, delta: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + delta

    @property
    def degraded(self) -> bool:
        return bool(self.reasons)

    # ------------------------------------------------------------------
    # signal handling
    # ------------------------------------------------------------------
    @contextlib.contextmanager
    def signals(self):
        """Install SIGINT/SIGTERM -> graceful-stop handlers.

        First delivery sets :attr:`interrupted`; a second SIGINT raises
        ``KeyboardInterrupt``.  Previous handlers are restored on exit.
        Off the main thread (where ``signal.signal`` refuses to work)
        this degrades to a no-op — the flag can still be set directly.
        """
        def handler(signum, frame):
            if self.interrupted and signum == signal.SIGINT:
                raise KeyboardInterrupt
            self.interrupted = True

        previous = {}
        try:
            for signum in (signal.SIGINT, signal.SIGTERM):
                previous[signum] = signal.signal(signum, handler)
        except ValueError:
            previous = {}
        try:
            yield self
        finally:
            for signum, old in previous.items():
                signal.signal(signum, old)


#: The active governor.  The default is unbounded and never interrupted,
#: so library callers that never touch the governor see no behaviour
#: change; its counters still work, keeping deep sites branch-free.
_DEFAULT = RunGovernor()
_ACTIVE: List[RunGovernor] = [_DEFAULT]


def current() -> RunGovernor:
    """The innermost active governor (the default one outside runs)."""
    return _ACTIVE[-1]


@contextlib.contextmanager
def activate(governor: RunGovernor):
    """Make *governor* the one deep call sites see, for one run."""
    _ACTIVE.append(governor)
    try:
        yield governor
    finally:
        _ACTIVE.pop()
