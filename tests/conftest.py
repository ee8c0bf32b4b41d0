"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import pytest

from repro.binary.blocks import module_from_asm
from repro.binary.layout import layout
from repro.binary.program import Module
from repro.isa.assembler import parse_program
from repro.sim.machine import run_image
from repro.telemetry import events


@pytest.fixture(autouse=True)
def _detach_leaked_sinks():
    """Every test ends with the event sinks it started with: a
    registry or ledger a test enabled and left attached would record
    every later test's events."""
    before = list(events._SINKS)
    yield
    for sink in list(events._SINKS):
        if sink not in before:
            events.detach(sink)


def module_from_source(asm_text: str, entry: str = "_start") -> Module:
    """Assemble text into a rewritable module."""
    return module_from_asm(parse_program(asm_text), entry=entry)


def run_asm(asm_text: str, entry: str = "_start", max_steps: int = 1_000_000):
    """Assemble, link, and execute; returns the RunResult."""
    return run_image(layout(module_from_source(asm_text, entry)),
                     max_steps=max_steps)


#: A small program with three functions sharing a reordered computation;
#: used across binary/pa tests.
SHARED_FRAGMENT_PROGRAM = """
.text
.global _start
_start:
    bl f1
    swi #2
    bl f2
    swi #2
    mov r0, #0
    swi #0
f1:
    push {r4, r5, r6, lr}
    mov r1, #3
    mov r2, #5
    add r3, r1, r2
    mul r4, r3, r1
    sub r5, r4, #2
    eor r6, r5, r1
    mov r0, r6
    pop {r4, r5, r6, pc}
f2:
    push {r4, r5, r6, lr}
    mov r2, #5
    mov r1, #3
    add r3, r1, r2
    mul r4, r3, r1
    sub r5, r4, #2
    eor r6, r5, r1
    add r0, r6, #100
    pop {r4, r5, r6, pc}
"""


@pytest.fixture
def shared_fragment_module() -> Module:
    return module_from_source(SHARED_FRAGMENT_PROGRAM)


@pytest.fixture
def shared_fragment_reference():
    return run_asm(SHARED_FRAGMENT_PROGRAM)
