"""The run governor: deadline, interrupt, degradation bookkeeping."""

import os
import signal

import pytest

from repro.resilience.governor import RunGovernor, activate, current


class FakeClock:
    def __init__(self, now=100.0):
        self.now = now

    def __call__(self):
        return self.now


def test_unbounded_by_default():
    governor = RunGovernor()
    assert not governor.expired()
    assert not governor.should_stop()


def test_deadline_expiry():
    clock = FakeClock()
    governor = RunGovernor(time_budget=10.0, clock=clock)
    assert not governor.should_stop()
    clock.now += 10.5
    assert governor.expired()
    assert governor.should_stop()


def test_force_expire_works_without_budget():
    governor = RunGovernor()
    governor.force_expire()
    assert governor.expired()
    assert governor.should_stop()


def test_interrupt_flag():
    governor = RunGovernor()
    governor.interrupt()
    assert governor.should_stop()
    assert not governor.expired()


def test_note_is_idempotent_and_ordered():
    governor = RunGovernor()
    governor.note("time_budget")
    governor.note("interrupted")
    governor.note("time_budget")
    assert governor.reasons == ["time_budget", "interrupted"]
    assert governor.degraded


def test_counters_accumulate():
    governor = RunGovernor()
    governor.count("mis.budget_exhausted")
    governor.count("mis.budget_exhausted", 2)
    assert governor.counters == {"mis.budget_exhausted": 3}


def test_activate_stack():
    outer = current()
    governor = RunGovernor()
    with activate(governor):
        assert current() is governor
        inner = RunGovernor()
        with activate(inner):
            assert current() is inner
        assert current() is governor
    assert current() is outer


def test_activate_pops_on_exception():
    outer = current()
    with pytest.raises(RuntimeError):
        with activate(RunGovernor()):
            raise RuntimeError("boom")
    assert current() is outer


def test_sigint_sets_flag_then_raises():
    governor = RunGovernor()
    with governor.signals():
        os.kill(os.getpid(), signal.SIGINT)
        # first delivery: graceful flag, no exception
        assert governor.interrupted
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGINT)
    # handlers restored: a SIGINT outside the context is the default
    # KeyboardInterrupt again
    with pytest.raises(KeyboardInterrupt):
        os.kill(os.getpid(), signal.SIGINT)


def test_sigterm_sets_flag():
    governor = RunGovernor()
    with governor.signals():
        os.kill(os.getpid(), signal.SIGTERM)
        assert governor.interrupted
        assert governor.should_stop()
