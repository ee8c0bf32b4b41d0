"""Abstract domains for the whole-module abstract interpreter.

Three cooperating lattices, shared by :mod:`repro.verify.absint`:

* **Values** — a flat constant lattice for register contents (BOT < one
  known constant < TOP), with two symbolic refinements that the stack
  discipline needs: :class:`StackAddr` (an address a fixed number of
  bytes below the *function-entry* stack pointer) and :data:`RETADDR`
  (the value the link register held at function entry — the return
  address).  PA only needs enough arithmetic to follow ``sp``
  adjustments by known amounts: a stack address moves only by a
  constant, so two distinct constants join straight to TOP, and a
  computed constant beyond :data:`MAGNITUDE_CAP` goes to TOP too.
* **Stack height** — derived, not stored: the height of the stack is
  whatever depth ``sp``'s abstract value carries, so there is exactly
  one source of truth for where the stack pointer is.
* **Frame slots + initialized-ness** — a finite map from byte depths
  (positive = below the function-entry ``sp``, i.e. this function's own
  frame) to abstract values.  Freshly allocated slots are
  :data:`UNINIT`; a slot holding :data:`RETADDR` is a saved link
  register, which nothing but the matching ``pop``/deallocation may
  touch.

All values are immutable and compare structurally, as the worklist
solver requires.  Joins are monotone over finite-height lattices:
every value chain is at most BOT < constant/address < TOP < UNINIT,
and frame maps only ever hold finitely many slots (allocation is
explicit), so every chain stabilises.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, Mapping, Optional, Tuple

#: Computed constants beyond this magnitude go to TOP, so adding one to
#: a stack address cannot mint unbounded depths.
MAGNITUDE_CAP = 1 << 24


class _Singleton:
    """A named lattice constant (``repr`` is the name, identity is eq)."""

    __slots__ = ("_name",)

    def __init__(self, name: str) -> None:
        self._name = name

    def __repr__(self) -> str:
        return self._name


#: No value yet (unreachable); the identity of :func:`join_values`.
BOT = _Singleton("BOT")
#: Any initialized value.
TOP = _Singleton("TOP")
#: A value that may be uninitialized garbage (never written, or
#: clobbered by a call).  Deliberately absorbs every join partner: once
#: garbage may flow in, the slot or register stays suspect.
UNINIT = _Singleton("UNINIT")
#: The function's own return address (``lr`` at entry).  A frame slot
#: holding this is a *saved* return address.
RETADDR = _Singleton("RETADDR")


@dataclass(frozen=True)
class Const:
    """One known machine word."""

    value: int

    def __repr__(self) -> str:
        return f"={self.value}"


@dataclass(frozen=True)
class StackAddr:
    """An address ``depth`` bytes below the function-entry ``sp``.

    ``depth`` may be negative: the address then lies *above* the entry
    stack pointer, in memory the caller owns.  ``sp`` itself carries
    ``StackAddr(height)`` where ``height`` is the current stack height.
    """

    depth: int

    def __repr__(self) -> str:
        return f"sp0-{self.depth}" if self.depth >= 0 else \
            f"sp0+{-self.depth}"


#: The value lattice: BOT < {Const, StackAddr, RETADDR} < TOP, with
#: UNINIT absorbing everything it meets.
AbsVal = object


def const(value: int) -> Const:
    """The abstract value of one known machine word."""
    return Const(value)


def _capped(value: int) -> AbsVal:
    """A computed constant, or TOP beyond :data:`MAGNITUDE_CAP`."""
    if abs(value) > MAGNITUDE_CAP:
        return TOP
    return Const(value)


def join_values(a: AbsVal, b: AbsVal) -> AbsVal:
    """Least upper bound of two abstract values."""
    if a is BOT:
        return b
    if b is BOT:
        return a
    if a is UNINIT or b is UNINIT:
        return UNINIT
    if a == b:
        return a
    return TOP


def add_values(a: AbsVal, b: AbsVal) -> AbsVal:
    """Abstract addition (used for ``add``/``sub``/address math)."""
    if a is BOT or b is BOT:
        return BOT
    if a is UNINIT or b is UNINIT:
        return UNINIT
    if isinstance(a, Const) and isinstance(b, Const):
        return _capped(a.value + b.value)
    # stack addresses shift by known offsets and nothing else
    if isinstance(a, StackAddr) and isinstance(b, Const):
        return StackAddr(a.depth - b.value)
    if isinstance(b, StackAddr) and isinstance(a, Const):
        return StackAddr(b.depth - a.value)
    return TOP


def negate_value(a: AbsVal) -> AbsVal:
    if isinstance(a, Const):
        return _capped(-a.value)
    if a in (BOT, UNINIT):
        return a
    return TOP


def stack_depth_of(value: AbsVal) -> Optional[int]:
    """The depth a value addresses, if it is a tracked stack address."""
    if isinstance(value, StackAddr):
        return value.depth
    return None


# ----------------------------------------------------------------------
# the frame-slot map
# ----------------------------------------------------------------------
#: Immutable frame: sorted ``(depth, value)`` pairs.  Depths are byte
#: offsets below the function-entry ``sp``; only word-aligned slots the
#: function explicitly allocated (push / ``sub sp``) are tracked.
Frame = Tuple[Tuple[int, AbsVal], ...]

EMPTY_FRAME: Frame = ()


def frame_from_dict(slots: Mapping[int, AbsVal]) -> Frame:
    return tuple(sorted(slots.items()))


def frame_to_dict(frame: Frame) -> Dict[int, AbsVal]:
    return dict(frame)


def join_frames(a: Frame, b: Frame) -> Frame:
    """Pointwise join; slots tracked on only one side are dropped.

    Dropping (rather than keeping as UNINIT) is the *may*-direction
    over-approximation for everything except initialized-ness, which
    deliberately errs silent: a slot allocated on only one path will be
    re-allocated (and re-marked UNINIT) before any same-path read.
    """
    if a == b:
        return a
    da, db = dict(a), dict(b)
    merged: Dict[int, AbsVal] = {}
    for depth in da.keys() & db.keys():
        merged[depth] = join_values(da[depth], db[depth])
    return frame_from_dict(merged)


# ----------------------------------------------------------------------
# the combined machine state
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class AbsState:
    """One abstract machine state: sixteen registers plus the frame.

    The stack height is not stored separately — it is the depth of the
    ``sp`` register's :class:`StackAddr` value (``None`` when ``sp``
    escaped tracking).  ``escaped`` is sticky: a stack address was
    stored to untracked memory, so any later call may alias the frame.
    ``bottom`` marks the unreachable state, the solver's optimistic
    initial fact.
    """

    regs: Tuple[AbsVal, ...]
    frame: Frame = EMPTY_FRAME
    escaped: bool = False
    bottom: bool = False

    @property
    def height(self) -> Optional[int]:
        """Bytes of stack below the function-entry ``sp`` (None=lost)."""
        return stack_depth_of(self.regs[13])

    def reg(self, num: int) -> AbsVal:
        return self.regs[num]

    def with_reg(self, num: int, value: AbsVal) -> "AbsState":
        regs = self.regs[:num] + (value,) + self.regs[num + 1:]
        return AbsState(regs=regs, frame=self.frame,
                        escaped=self.escaped)

    def with_frame(self, frame: Frame) -> "AbsState":
        return AbsState(regs=self.regs, frame=frame,
                        escaped=self.escaped)


BOTTOM_STATE = AbsState(regs=(BOT,) * 16, frame=EMPTY_FRAME, bottom=True)


def entry_state() -> AbsState:
    """The abstract state at a function entry.

    Argument and callee-saved registers hold the caller's (initialized)
    values, ``sp`` sits at height 0 and ``lr`` holds the return
    address.  The frame is empty: nothing is allocated yet.
    """
    regs: list = [TOP] * 16
    regs[13] = StackAddr(0)
    regs[14] = RETADDR
    return AbsState(regs=tuple(regs), frame=EMPTY_FRAME)


def join_states(a: AbsState, b: AbsState) -> AbsState:
    if a.bottom:
        return b
    if b.bottom:
        return a
    if a == b:
        return a
    regs = tuple([
        ra if ra is rb else join_values(ra, rb)
        for ra, rb in zip(a.regs, b.regs)
    ])
    return AbsState(regs=regs, frame=join_frames(a.frame, b.frame),
                    escaped=a.escaped or b.escaped)


def allocate(frame: Frame, old_height: int, new_height: int) -> Frame:
    """Mark the word slots in ``(old_height, new_height]`` UNINIT."""
    slots = dict(frame)
    depth = old_height + 4
    while depth <= new_height:
        slots[depth] = UNINIT
        depth += 4
    return frame_from_dict(slots)


def deallocate(frame: Frame, new_height: int) -> Frame:
    """Drop every slot strictly below the new stack pointer."""
    return tuple(
        (depth, value) for depth, value in frame if depth <= new_height
    )


def retaddr_depths(frame: Frame) -> Tuple[int, ...]:
    """Depths of every slot currently holding a saved return address."""
    return tuple(d for d, v in frame if v is RETADDR)


def iter_slots(frame: Frame) -> Iterable[Tuple[int, AbsVal]]:
    return iter(frame)
