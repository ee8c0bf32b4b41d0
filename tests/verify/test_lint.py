"""The module linter: every rule fires on its counterexample and stays
quiet on clean code."""

import json

import pytest

from repro.isa.assembler import parse_instruction

from repro.verify.lint import Severity, lint_module

from tests.conftest import SHARED_FRAGMENT_PROGRAM, module_from_source


def rules(report):
    return set(report.by_rule())


def findings_for(report, rule):
    return [f for f in report.findings if f.rule == rule]


CLEAN = """
_start:
    bl f
    mov r0, #0
    swi #0
f:
    push {r4, lr}
    mov r4, #1
    cmp r4, #0
    beq out
    add r4, r4, #1
out:
    mov r0, r4
    pop {r4, pc}
"""


def test_clean_module_has_no_errors():
    report = lint_module(module_from_source(CLEAN))
    assert report.ok
    assert report.errors == []


def test_shared_fragment_program_is_clean():
    report = lint_module(module_from_source(SHARED_FRAGMENT_PROGRAM))
    assert report.ok


def test_undefined_label():
    module = module_from_source(CLEAN)
    module.function("f").blocks[0].instructions.append(
        parse_instruction("b nowhere")
    )
    report = lint_module(module)
    found = findings_for(report, "undefined-label")
    assert found and found[0].severity is Severity.ERROR
    assert "nowhere" in found[0].message


def test_duplicate_label():
    module = module_from_source(CLEAN)
    module.function("f").blocks[0].labels.append("_start")
    report = lint_module(module)
    assert findings_for(report, "duplicate-label")
    assert not report.ok


def test_mid_block_transfer():
    module = module_from_source(CLEAN)
    block = module.function("f").blocks[0]
    block.instructions.insert(0, parse_instruction("b out"))
    report = lint_module(module)
    found = findings_for(report, "mid-block-transfer")
    assert found and found[0].severity is Severity.ERROR


def test_function_fallthrough():
    module = module_from_source(CLEAN)
    # drop f's return: its last block now runs off the function's end
    module.function("f").blocks[-1].instructions.pop()
    report = lint_module(module)
    assert findings_for(report, "function-fallthrough")


def stack_sites(report):
    """Exact ``(rule, severity, function, block, insn)`` of every
    finding of a rule about the stack height."""
    return [
        (f.rule, str(f.severity), f.function, f.block, f.insn)
        for f in report.findings
        if f.rule.startswith("stack-")
        or f.rule in ("unbalanced-stack", "unbounded-stack-growth")
    ]


def test_stack_imbalance():
    module = module_from_source(CLEAN)
    # remove the push but keep the pop: f returns 8 bytes above its
    # entry sp, and its caller's sp rises with it
    blocks = module.function("f").blocks
    assert blocks[0].instructions[0].mnemonic == "push"
    del blocks[0].instructions[0]
    report = lint_module(module)
    assert stack_sites(report) == [
        ("stack-negative", "warning", "_start", 0, 0),
        ("stack-negative", "warning", "f", 2, 1),
        ("stack-nonzero-return", "warning", "f", 2, 1),
    ]
    assert report.ok  # warnings only: a helper may be meant this way


#: ``_start`` calls ``f``; each shape is ``f``'s body.
SHAPES_START = "_start:\n    bl f\n    mov r0, #0\n    swi #0\nf:\n"

#: Shape -> its exact stack findings.  A callee whose return height is
#: unknown loses its caller's height too (``stack-unknown`` in
#: ``_start``).
STACK_SHAPES = {
    "two-returns": (
        """
    push {r4, lr}
    cmp r0, #0
    beq other
    pop {r4, pc}
other:
    push {r5}
    pop {r4, pc}
""", [("stack-unknown", "info", "_start", 0, 0),
      ("stack-imbalance", "error", "f", 1, 0)]),
    "cond-push": (
        """
    push {r4, lr}
    cmp r0, #0
    pusheq {r4}
    pop {r4, pc}
""", [("stack-unknown", "info", "_start", 0, 0),
      ("unbalanced-stack", "error", "f", 0, 2)]),
    "cond-return": (
        """
    push {r4, lr}
    cmp r0, #0
    popeq {r4, pc}
    mov r4, #2
    pop {r4, pc}
""", []),
    "nonzero-helper": (
        """
    sub sp, sp, #8
    mov pc, lr
""", [("stack-nonzero-return", "warning", "f", 0, 1)]),
    "negative": (
        """
    pop {r4}
    mov r0, r4
    push {r4}
    bx lr
""", [("stack-negative", "warning", "f", 0, 0)]),
    "unknown": (
        """
    push {r4, lr}
    mov sp, r0
    pop {r4, pc}
""", [("stack-unknown", "info", "_start", 0, 0),
      ("stack-unknown", "info", "f", 0, 1)]),
    "loop-growth": (
        """
    sub sp, sp, #4
    cmp r0, #0
    bne f
    mov pc, lr
""", [("stack-unknown", "info", "_start", 0, 0),
      ("unbounded-stack-growth", "warning", "f", 0, None)]),
    "merge-mismatch": (
        """
    push {r4, lr}
    cmp r0, #0
    beq skip
    push {r5}
skip:
    pop {r4, pc}
""", [("stack-unknown", "info", "_start", 0, 0),
      ("unbalanced-stack", "error", "f", 2, None)]),
}


@pytest.mark.parametrize("shape", sorted(STACK_SHAPES))
def test_stack_shapes(shape):
    body, want = STACK_SHAPES[shape]
    report = lint_module(module_from_source(SHAPES_START + body))
    assert stack_sites(report) == want
    assert report.ok == all(severity != "error"
                            for __, severity, *___ in want)


def test_undefined_flag_read():
    module = module_from_source(
        """
        _start:
            beq oops
            mov r0, #0
            swi #0
        oops:
            mov r0, #1
            swi #0
        """
    )
    report = lint_module(module)
    found = findings_for(report, "undefined-flag-read")
    assert found and found[0].severity is Severity.ERROR
    assert "entry" in found[0].message


def test_flag_read_after_preserving_call_is_clean():
    """A bl between cmp and the consumer is fine when the callee
    provably preserves NZCV — the false positive the interprocedural
    flag summaries exist to avoid."""
    module = module_from_source(
        """
        _start:
            cmp r0, #0
            bl helper
            beq done
            mov r1, #1
        done:
            mov r0, #0
            swi #0
        helper:
            add r2, r2, #1
            bx lr
        """
    )
    report = lint_module(module)
    assert not findings_for(report, "undefined-flag-read")


def test_unreachable_block_is_warning():
    module = module_from_source(
        """
        _start:
            b done
        dead:
            mov r1, #1
        done:
            mov r0, #0
            swi #0
        """
    )
    report = lint_module(module)
    found = findings_for(report, "unreachable-block")
    assert found and found[0].severity is Severity.WARNING
    assert report.ok  # warnings don't fail the lint


def test_report_json_shape():
    report = lint_module(module_from_source(CLEAN))
    payload = json.loads(report.to_json())
    assert payload["schema"] == "repro.verify.lint/2"
    assert payload["ok"] is True
    assert set(payload["counts"]) == {"info", "warning", "error"}
    assert isinstance(payload["findings"], list)


def test_render_mentions_rule_and_location():
    module = module_from_source(CLEAN)
    module.function("f").blocks[0].instructions.append(
        parse_instruction("b nowhere")
    )
    text = lint_module(module).render()
    assert "[undefined-label]" in text
    assert "f, block 0" in text
