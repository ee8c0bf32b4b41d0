"""Lattice laws for the abstract-interpretation domains.

The worklist solver terminates only if joins are monotone over
finite-height lattices, so the value/frame/state joins are checked
directly: commutativity, idempotence, BOT identity, UNINIT absorption,
and the flat constant lattice whose chains are at most three steps
long.
"""

import itertools

from repro.verify.domains import (
    BOT,
    BOTTOM_STATE,
    EMPTY_FRAME,
    MAGNITUDE_CAP,
    RETADDR,
    StackAddr,
    TOP,
    UNINIT,
    add_values,
    allocate,
    const,
    deallocate,
    entry_state,
    frame_from_dict,
    join_frames,
    join_states,
    join_values,
    negate_value,
    retaddr_depths,
    stack_depth_of,
)

SAMPLES = [
    BOT, TOP, UNINIT, RETADDR,
    const(0), const(7), const(-4),
    StackAddr(0), StackAddr(8), StackAddr(-4),
]


def test_join_is_commutative_and_idempotent():
    for a, b in itertools.product(SAMPLES, repeat=2):
        assert join_values(a, b) == join_values(b, a)
    for a in SAMPLES:
        assert join_values(a, a) == a


def test_bot_is_the_join_identity():
    for a in SAMPLES:
        assert join_values(BOT, a) == a
        assert join_values(a, BOT) == a


def test_uninit_absorbs_everything_but_bot():
    for a in SAMPLES:
        if a is BOT:
            continue
        assert join_values(UNINIT, a) is UNINIT


def test_distinct_kinds_join_to_top():
    assert join_values(const(1), StackAddr(4)) is TOP
    assert join_values(RETADDR, const(0)) is TOP
    assert join_values(StackAddr(4), StackAddr(8)) is TOP


def test_distinct_constants_join_to_top():
    assert join_values(const(1), const(5)) is TOP
    # one step from a constant to TOP: no chain climbs a loop trip at a time
    assert join_values(const(0), const(1)) is TOP
    # the magnitude cap sends a large computed constant to TOP
    assert add_values(const(MAGNITUDE_CAP), const(1)) is TOP


def test_add_values_shifts_stack_addresses():
    # sub sp, sp, #8: sp := sp + (-8) deepens the stack by 8 bytes
    assert add_values(StackAddr(0), const(-8)) == StackAddr(8)
    assert add_values(const(4), StackAddr(8)) == StackAddr(4)
    # adding an unknown amount loses the address
    assert add_values(StackAddr(0), TOP) is TOP
    assert add_values(StackAddr(0), UNINIT) is UNINIT


def test_negate_value():
    assert negate_value(const(5)) == const(-5)
    assert negate_value(StackAddr(4)) is TOP
    assert negate_value(UNINIT) is UNINIT


def test_stack_depth_of():
    assert stack_depth_of(StackAddr(12)) == 12
    assert stack_depth_of(const(12)) is None
    assert stack_depth_of(TOP) is None


def test_frame_join_is_pointwise_and_drops_one_sided_slots():
    a = frame_from_dict({4: const(1), 8: RETADDR})
    b = frame_from_dict({4: const(3), 12: const(9)})
    joined = dict(join_frames(a, b))
    assert joined == {4: TOP}
    assert join_frames(a, a) == a


def test_allocate_marks_new_words_uninit():
    frame = allocate(EMPTY_FRAME, 0, 8)
    assert dict(frame) == {4: UNINIT, 8: UNINIT}
    # push over the allocation keeps the deeper slot
    frame = allocate(frame, 8, 12)
    assert dict(frame) == {4: UNINIT, 8: UNINIT, 12: UNINIT}


def test_deallocate_drops_slots_below_the_new_sp():
    frame = frame_from_dict({4: RETADDR, 8: const(1), 12: const(2)})
    assert dict(deallocate(frame, 8)) == {4: RETADDR, 8: const(1)}
    assert deallocate(frame, 0) == EMPTY_FRAME


def test_retaddr_depths():
    frame = frame_from_dict({4: RETADDR, 8: const(0), 16: RETADDR})
    assert retaddr_depths(frame) == (4, 16)


def test_entry_state_shape():
    state = entry_state()
    assert state.height == 0
    assert state.reg(13) == StackAddr(0)
    assert state.reg(14) is RETADDR
    assert state.reg(0) is TOP
    assert state.frame == EMPTY_FRAME
    assert not state.escaped and not state.bottom


def test_bottom_is_the_state_join_identity():
    state = entry_state().with_reg(4, const(7))
    assert join_states(BOTTOM_STATE, state) == state
    assert join_states(state, BOTTOM_STATE) == state


def test_state_join_merges_registers_and_sticky_escape():
    a = entry_state().with_reg(4, const(1))
    b = entry_state().with_reg(4, const(3))
    joined = join_states(a, b)
    assert joined.reg(4) is TOP
    assert joined.height == 0

    leaky = b.__class__(regs=b.regs, frame=b.frame, escaped=True)
    assert join_states(a, leaky).escaped


def test_with_reg_replaces_exactly_one_register():
    state = entry_state().with_reg(4, const(9))
    assert state.reg(4) == const(9)
    assert state.reg(5) is TOP
    assert state.reg(13) == StackAddr(0)
