"""The concrete dataflow passes: liveness, undef and flags; and the
absint stack-height summaries that replaced the depth-set pass."""

from repro.dfg.builder import FLAGS
from repro.isa.registers import LR

from repro.verify.absint import audit_module
from repro.verify.passes import (
    flag_def_use,
    flag_effect_summaries,
    live_out_blocks,
    liveness,
    maybe_undef,
)

from tests.conftest import module_from_source


# ----------------------------------------------------------------------
# liveness
# ----------------------------------------------------------------------
def test_liveness_general_register():
    module = module_from_source(
        """
        _start:
            mov r4, #7
            cmp r0, #0
            beq skip
            add r4, r4, #1
        skip:
            mov r0, r4
            swi #0
        """
    )
    result = liveness(module)
    # r4 is live out of both predecessor blocks of "skip"
    assert 4 in result.out_facts[("_start", 0)]
    assert 4 in result.out_facts[("_start", 1)]
    # consumed in the final block; nothing keeps it live after
    assert 4 not in result.out_facts[("_start", 2)]


def test_liveness_write_kills():
    module = module_from_source(
        """
        _start:
            mov r1, #1
            mov r1, #2
            mov r0, r1
            swi #0
        """
    )
    result = liveness(module)
    # single block: nothing live at entry except what swi reads and r1
    # chain is internal
    assert 1 not in result.in_facts[("_start", 0)]


def test_flags_live_between_cmp_and_branch():
    module = module_from_source(
        """
        _start:
            cmp r0, #0
            beq out
            mov r1, #1
        out:
            mov r0, #0
            swi #0
        """
    )
    result = liveness(module)
    # the cmp kills the incoming flags and the beq consumes them inside
    # block 0, so the flags are live neither at its entry nor its exit
    assert FLAGS not in result.in_facts[("_start", 0)]
    assert FLAGS not in result.out_facts[("_start", 0)]


def test_live_out_blocks_matches_lr_wrapper():
    module = module_from_source(
        """
        _start:
            bl f
            swi #0
        f:
            mov r1, #1
            cmp r1, #0
            beq out
            add r1, r1, #1
        out:
            mov pc, lr
        """
    )
    from repro.pa.liveness import lr_live_out_blocks

    assert lr_live_out_blocks(module) == live_out_blocks(module, LR)


# ----------------------------------------------------------------------
# maybe-undefined
# ----------------------------------------------------------------------
def test_maybe_undef_flags_at_entry_and_after_call():
    module = module_from_source(
        """
        _start:
            bl f
            mov r0, #0
            swi #0
        f:
            cmp r0, #0
            bx lr
        """
    )
    result = maybe_undef(module)
    assert FLAGS in result.in_facts[("_start", 0)]
    assert FLAGS in result.in_facts[("f", 0)]
    # after f's cmp the flags are defined at exit
    assert FLAGS not in result.out_facts[("f", 0)]


def test_maybe_undef_scratch_after_call():
    module = module_from_source(
        """
        _start:
            mov r1, #1
            bl f
            mov r0, r1
            swi #0
        f:
            bx lr
        """
    )
    result = maybe_undef(module)
    # r1 is caller-saved scratch: possibly garbage at _start's exit
    assert 1 in result.out_facts[("_start", 0)]


# ----------------------------------------------------------------------
# flag effect summaries + def-use
# ----------------------------------------------------------------------
def test_flag_summary_none_preserving_callee():
    module = module_from_source(
        """
        _start:
            bl f
            mov r0, #0
            swi #0
        f:
            add r1, r1, #1
            bx lr
        """
    )
    assert flag_effect_summaries(module)["f"] == "none"


def test_flag_summary_must_unconditional_cmp():
    module = module_from_source(
        """
        _start:
            bl f
            mov r0, #0
            swi #0
        f:
            cmp r1, #0
            bx lr
        """
    )
    assert flag_effect_summaries(module)["f"] == "must"


def test_flag_summary_must_when_every_path_defines():
    module = module_from_source(
        """
        _start:
            cmp r1, #0
            bl f
            mov r0, #0
            swi #0
        f:
            cmp r1, #4
            beq out
            bx lr
        out:
            cmp r1, #5
            bx lr
        """
    )
    # both of f's return paths pass a cmp -> must
    assert flag_effect_summaries(module)["f"] == "must"


def test_flag_summary_may_when_one_path_skips_the_write():
    module = module_from_source(
        """
        _start:
            cmp r1, #0
            bl f
            mov r0, #0
            swi #0
        f:
            beq setter
            bx lr
        setter:
            cmp r2, #4
            bx lr
        """
    )
    # the fall-through return leaves the caller's flags untouched while
    # the "setter" path rewrites them: writes on some paths only -> may
    assert flag_effect_summaries(module)["f"] == "may"


def test_flag_summary_transitive_through_helper():
    module = module_from_source(
        """
        _start:
            bl f
            mov r0, #0
            swi #0
        f:
            push {lr}
            bl g
            pop {pc}
        g:
            cmp r1, #0
            bx lr
        """
    )
    summaries = flag_effect_summaries(module)
    assert summaries["g"] == "must"
    assert summaries["f"] == "must"


def test_flag_def_use_transparent_call_keeps_definition():
    """The extractor's signature shape: cmp, then a bl to an outlined
    helper that preserves NZCV, then the conditional consumer."""
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
    chains = flag_def_use(module)
    defs = chains[("_start", 0, 2)]  # the beq
    assert defs == frozenset({("set", "_start", 0, 0)})


def test_flag_def_use_must_call_is_definition_site():
    """A helper ending in cmp *returns* flags; the caller's consumer
    must see the call as the definition, not an error."""
    module = module_from_source(
        """
        _start:
            bl helper
            beq done
            mov r1, #1
        done:
            mov r0, #0
            swi #0
        helper:
            cmp r0, #0
            bx lr
        """
    )
    chains = flag_def_use(module)
    defs = chains[("_start", 0, 1)]  # the beq
    assert defs == frozenset({("set", "_start", 0, 0)})


def test_flag_def_use_entry_undef_reaches_reader():
    module = module_from_source(
        """
        _start:
            beq done
            mov r1, #1
        done:
            mov r0, #0
            swi #0
        """
    )
    chains = flag_def_use(module)
    assert ("undef", "_start") in chains[("_start", 0, 0)]


# ----------------------------------------------------------------------
# stack height (absint summaries)
# ----------------------------------------------------------------------
def test_stack_balanced_function_summary_zero():
    module = module_from_source(
        """
        _start:
            bl f
            mov r0, #0
            swi #0
        f:
            push {r4, lr}
            mov r4, #1
            pop {r4, pc}
        """
    )
    summary = audit_module(module).summaries["f"]
    assert summary.net_delta == 0
    assert summary.height_known


def test_stack_balanced_callee_is_transparent():
    module = module_from_source(
        """
        _start:
            bl f
            mov r0, #0
            swi #0
        f:
            push {r4, lr}
            mov r4, #1
            bl helper
            mov r0, r4
            pop {r4, pc}
        helper:
            add r4, r4, #1
            bx lr
        """
    )
    audit = audit_module(module)
    assert audit.summaries["helper"].net_delta == 0
    assert audit.summaries["f"].net_delta == 0
    # the push/pop bracket nets out: height 0 leaving f's single block
    assert audit.result.out_facts[("f", 0)].height == 0


def test_stack_depth_interprocedural():
    """A callee with a nonzero net effect shifts the caller's height."""
    module = module_from_source(
        """
        _start:
            bl grow
            add sp, sp, #4
            mov r0, #0
            swi #0
        grow:
            sub sp, sp, #4
            bx lr
        """
    )
    audit = audit_module(module)
    assert audit.summaries["grow"].net_delta == 4
    assert audit.summaries["_start"].height_known
    assert audit.result.out_facts[("_start", 0)].height == 0
