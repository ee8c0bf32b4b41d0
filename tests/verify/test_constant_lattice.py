"""The constant lattice loses nothing that absint's consumers read.

:func:`interval_domain` below puts back the value domain the flat
constant lattice replaced: closed intervals that widen to TOP past a
width of 64 or a magnitude of 2^24.  Nothing downstream reads a
non-constant interval — every consumer reads ``StackAddr`` depths,
``RETADDR``/``UNINIT`` slots, summaries and events, a stack address
moves only by a constant, and no operation narrows a non-constant
interval back to a constant — so mapping each non-constant interval to
TOP must turn the interval fixpoint into the constant one, component
by component, and the audits must be equal.  The constant lattice has
fewer steps to climb, so it may only need fewer visits.
"""

from contextlib import contextmanager
from dataclasses import dataclass

import pytest

from repro.isa.operands import Imm, Reg, ShiftedReg
from repro.minicc.driver import compile_to_module
from repro.pa.driver import PAConfig, run_pa
from repro.pa.sfx import run_sfx
from repro.variance.genprog import generate_source, sized_config
from repro.verify import absint, domains
from repro.verify.absint import AbsIntAnalysis, audit_module
from repro.verify.cfg import build_module_cfg
from repro.verify.dataflow import solve
from repro.verify.domains import (
    BOT,
    MAGNITUDE_CAP,
    TOP,
    UNINIT,
    AbsState,
    Const,
    StackAddr,
)
from repro.workloads import PROGRAMS, compile_workload

from tests.conftest import module_from_source

#: The interval domain's width cap.
WIDTH_CAP = 64


@dataclass(frozen=True)
class Interval:
    """A closed integer interval ``[lo, hi]`` (a constant when equal)."""

    lo: int
    hi: int

    @property
    def is_const(self):
        return self.lo == self.hi


def interval_const(value):
    return Interval(value, value)


def _widen(lo, hi):
    if hi - lo > WIDTH_CAP or abs(lo) > MAGNITUDE_CAP \
            or abs(hi) > MAGNITUDE_CAP:
        return TOP
    return Interval(lo, hi)


def interval_join(a, b):
    if a is BOT:
        return b
    if b is BOT:
        return a
    if a is UNINIT or b is UNINIT:
        return UNINIT
    if a == b:
        return a
    if isinstance(a, Interval) and isinstance(b, Interval):
        return _widen(min(a.lo, b.lo), max(a.hi, b.hi))
    return TOP


def interval_add(a, b):
    if a is BOT or b is BOT:
        return BOT
    if a is UNINIT or b is UNINIT:
        return UNINIT
    if isinstance(a, Interval) and isinstance(b, Interval):
        return _widen(a.lo + b.lo, a.hi + b.hi)
    if isinstance(a, StackAddr) and isinstance(b, Interval) \
            and b.is_const:
        return StackAddr(a.depth - b.lo)
    if isinstance(b, StackAddr) and isinstance(a, Interval) \
            and a.is_const:
        return StackAddr(b.depth - a.lo)
    return TOP


def interval_negate(a):
    if isinstance(a, Interval):
        return _widen(-a.hi, -a.lo)
    if a in (BOT, UNINIT):
        return a
    return TOP


def interval_flex_value(regs, op):
    if isinstance(op, Imm):
        return interval_const(op.value)
    if isinstance(op, Reg):
        return regs[op.num]
    if isinstance(op, ShiftedReg):
        value = regs[op.num]
        if value is UNINIT or value is BOT:
            return value
        if isinstance(value, Interval) and op.shift_op == "lsl":
            return interval_add(
                interval_const(0),
                Interval(value.lo << op.amount, value.hi << op.amount),
            )
        return TOP
    return TOP


@contextmanager
def interval_domain(monkeypatch):
    """Absint over the interval domain for the body of the block."""
    with monkeypatch.context() as patch:
        patch.setattr(domains, "join_values", interval_join)
        patch.setattr(absint, "join_values", interval_join)
        patch.setattr(absint, "add_values", interval_add)
        patch.setattr(absint, "negate_value", interval_negate)
        patch.setattr(absint, "const", interval_const)
        patch.setattr(absint, "_flex_value", interval_flex_value)
        yield


def collapse(value):
    """An interval-domain value as the constant lattice sees it."""
    if isinstance(value, Interval):
        return Const(value.lo) if value.is_const else TOP
    return value


def collapse_state(state):
    return AbsState(
        regs=tuple(collapse(v) for v in state.regs),
        frame=tuple((d, collapse(v)) for d, v in state.frame),
        escaped=state.escaped, bottom=state.bottom,
    )


def collapse_facts(facts):
    return {key: collapse_state(state) for key, state in facts.items()}


def compare_domains(module, monkeypatch):
    """Audit and solve every component under both value domains.

    Returns the mismatches and the total visits of each domain.
    """
    audit = audit_module(module)
    with interval_domain(monkeypatch):
        reference = audit_module(module)
    mismatches = []
    if audit.to_payload() != reference.to_payload():
        mismatches.append("audit")
    visits = {"constant": 0, "interval": 0}
    for component in build_module_cfg(module).components():
        got = solve(component.cfg, AbsIntAnalysis(audit.summaries))
        with interval_domain(monkeypatch):
            want = solve(component.cfg, AbsIntAnalysis(audit.summaries))
        if (got.in_facts != collapse_facts(want.in_facts)
                or got.out_facts != collapse_facts(want.out_facts)):
            mismatches.append(component.cfg.keys[0])
        visits["constant"] += got.iterations
        visits["interval"] += want.iterations
    return mismatches, visits


@pytest.mark.parametrize("name", PROGRAMS)
def test_every_component_collapses_to_the_constant_fixpoint(
        name, monkeypatch):
    """Pristine, after SFX, and after Edgar at ``max_nodes`` 5."""
    states = {
        "pristine": compile_workload(name),
        "sfx": run_sfx(compile_workload(name)).module,
        "edgar": run_pa(compile_workload(name),
                        PAConfig(miner="edgar", max_nodes=5)).module,
    }
    for state, program in states.items():
        mismatches, visits = compare_domains(program, monkeypatch)
        assert mismatches == [], state
        assert visits["constant"] <= visits["interval"], state


@pytest.mark.slow
@pytest.mark.parametrize("seed", range(1, 11))
def test_generated_programs_collapse_to_the_constant_fixpoint(
        seed, monkeypatch):
    """Fuzzed programs of about 300 instructions, before and after SFX."""
    module = compile_to_module(generate_source(sized_config(seed, 300)))
    assert compare_domains(module, monkeypatch)[0] == []
    assert compare_domains(run_sfx(module).module, monkeypatch)[0] == []


#: ``r1`` counts down to TOP one trip at a time under intervals; ``r3``
#: flips between 1 and 0, a two-value interval that never widens, and
#: ``sp`` plus it is no stack address in either domain.
COUNTED_LOOP = """
_start:
    mov r1, #4
    mov r3, #1
loop:
    rsb r3, r3, #1
    add r2, sp, r3
    sub r1, r1, #1
    cmp r1, #0
    bne loop
    add r0, r3, #0
    swi #0
"""


def test_the_reference_really_is_the_interval_domain(monkeypatch):
    """The reference keeps a non-constant interval at the fixpoint and
    climbs for longer; the constant lattice sends both to TOP, and the
    collapsed facts agree."""
    cfg = build_module_cfg(module_from_source(COUNTED_LOOP))
    got = solve(cfg, AbsIntAnalysis({}))
    with interval_domain(monkeypatch):
        want = solve(cfg, AbsIntAnalysis({}))
    intervals = {v for state in want.in_facts.values() for v in state.regs
                 if isinstance(v, Interval) and not v.is_const}
    assert intervals == {Interval(0, 1)}
    assert got.in_facts == collapse_facts(want.in_facts)
    assert got.iterations < want.iterations
