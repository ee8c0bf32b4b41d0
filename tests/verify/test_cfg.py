"""Module-wide CFG construction — the edge cases that motivated it.

Function segmentation background (see repro.binary.blocks): function
entries are the entry symbol and every ``bl`` target, so a label only
reached by plain ``b`` stays a *block* of the surrounding function —
which is exactly how cross-function tail edges arise.
"""

from repro.verify.cfg import build_module_cfg
from repro.workloads import compile_workload

from tests.conftest import module_from_source


def test_fall_through_does_not_cross_function_boundary():
    """A block that runs off the end of its function must NOT get an
    implicit edge into the next function (that is a lint error, not a
    control-flow fact)."""
    module = module_from_source(
        """
        _start:
            bl f
            bl g
            mov r0, #0
            swi #0
        f:
            mov r1, #1
        g:
            mov r2, #2
            mov pc, lr
        """
    )
    cfg = build_module_cfg(module)
    # f's only block neither returns nor branches; g follows physically
    # but is its own function (it is a bl target).
    assert ("g", 0) in cfg.blocks
    assert cfg.succ[("f", 0)] == []
    assert ("f", 0) not in cfg.pred[("g", 0)]


def test_fall_through_within_function_is_recorded():
    module = module_from_source(
        """
        _start:
            bl f
            mov r0, #0
            swi #0
        f:
            mov r1, #1
        inner:
            add r1, r1, #1
            cmp r1, #3
            bne inner
            mov pc, lr
        """
    )
    cfg = build_module_cfg(module)
    # "inner" is a block label (loop head), so f's entry block ends
    # without a terminator and plain fall-through stays inside f
    assert cfg.succ[("f", 0)] == [("f", 1)]
    assert set(cfg.succ[("f", 1)]) == {("f", 1), ("f", 2)}


def test_conditional_branch_records_target_and_fall_through():
    module = module_from_source(
        """
        _start:
            cmp r0, #0
            beq done
            mov r1, #1
        done:
            mov r0, #0
            swi #0
        """
    )
    cfg = build_module_cfg(module)
    succ = set(cfg.succ[("_start", 0)])
    assert succ == {("_start", 1), ("_start", 2)}
    # and the fall-through block then falls into the labelled one
    assert cfg.succ[("_start", 1)] == [("_start", 2)]


def test_unconditional_branch_suppresses_fall_through():
    module = module_from_source(
        """
        _start:
            b done
            mov r1, #1
        done:
            mov r0, #0
            swi #0
        """
    )
    cfg = build_module_cfg(module)
    assert cfg.succ[("_start", 0)] == [("_start", 2)]


def test_cross_function_label_resolution_shared_tail():
    """Cross-jumping creates tails that other functions branch into;
    the edges must resolve across function boundaries (the rijndael
    regression shape)."""
    module = module_from_source(
        """
        _start:
            bl f
            bl g
            swi #0
        f:
            mov r1, #1
            b shared
        g:
            mov r1, #2
            b shared
        shared:
            add r1, r1, #1
            mov pc, lr
        """
    )
    cfg = build_module_cfg(module)
    # "shared" is a block of g; f's branch still resolves into it
    tail = cfg.label_to_block["shared"]
    assert tail == ("g", 1)
    assert cfg.succ[("f", 0)] == [tail]
    assert cfg.succ[("g", 0)] == [tail]
    assert sorted(cfg.pred[tail]) == [("f", 0), ("g", 0)]


def test_return_block_has_no_successors():
    module = module_from_source(
        """
        _start:
            bl f
            mov r0, #0
            swi #0
        f:
            bx lr
        """
    )
    cfg = build_module_cfg(module)
    assert cfg.succ[("f", 0)] == []
    assert ("f", 0) in cfg.exits()


def test_entries_and_labels():
    module = module_from_source(
        """
        _start:
            bl f
            mov r0, #0
            swi #0
        f:
            mov pc, lr
        """
    )
    cfg = build_module_cfg(module)
    assert cfg.entries == [("_start", 0), ("f", 0)]
    assert cfg.label_to_block["f"] == ("f", 0)


def test_equal_component_contents_hash_and_compare_equal():
    """Two compiles of one program split into distinct but equal
    content objects: memo keys that find each other."""
    first = build_module_cfg(compile_workload("crc")).components()
    second = build_module_cfg(compile_workload("crc")).components()
    assert len(first) == len(second) > 1
    for a, b in zip(first, second):
        assert a.content is not b.content
        assert a.content.items is not b.content.items
        assert hash(a.content) == hash(b.content)
        assert a.content == b.content
        assert {a.content: 1}[b.content] == 1
    assert first[0].content != first[1].content
    assert first[0].content != first[0].content.items
