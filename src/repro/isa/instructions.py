"""The instruction object model and per-mnemonic semantics metadata.

An :class:`Instruction` is an immutable value object.  Its text rendering
(``str(insn)``) is the *node label* used throughout the system: the
assembler parses it back, the DFG builder hashes it, and the miner
matches fragments on it.  Two instructions are "the same" for procedural
abstraction exactly when their text is identical (paper §5: exact
matching; see :mod:`repro.pa.canonical` for the fuzzy variant).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Tuple

from repro.isa.operands import Imm, LabelRef, Mem, Reg, RegList, ShiftedReg
from repro.isa.registers import LR, PC, SP


class InstructionError(ValueError):
    """Raised for malformed instructions."""


#: ARM condition codes in encoding order (0b0000 .. 0b1110).
CONDITIONS = (
    "eq", "ne", "cs", "cc", "mi", "pl", "vs", "vc",
    "hi", "ls", "ge", "lt", "gt", "le", "al",
)

#: Data-processing mnemonics in ARM opcode-field order (0b0000 .. 0b1111).
DATAPROC_OPCODES = (
    "and", "eor", "sub", "rsb", "add", "adc", "sbc", "rsc",
    "tst", "teq", "cmp", "cmn", "orr", "mov", "bic", "mvn",
)

#: Data-processing mnemonics taking (rd, rn, op2).
DATAPROC_3OP = frozenset(
    {"and", "eor", "sub", "rsb", "add", "adc", "sbc", "rsc", "orr", "bic"}
)
#: Data-processing mnemonics taking (rd, op2).
DATAPROC_MOVE = frozenset({"mov", "mvn"})
#: Comparison mnemonics taking (rn, op2); these always set the flags.
DATAPROC_COMPARE = frozenset({"tst", "teq", "cmp", "cmn"})
#: Mnemonics whose result depends on the incoming carry flag.
CARRY_READERS = frozenset({"adc", "sbc", "rsc"})

LOADS = frozenset({"ldr", "ldrb"})
STORES = frozenset({"str", "strb"})
MULTIPLIES = frozenset({"mul", "mla"})
BRANCHES = frozenset({"b", "bl", "bx"})
BLOCK_TRANSFERS = frozenset({"push", "pop"})

ALL_MNEMONICS = (
    DATAPROC_3OP
    | DATAPROC_MOVE
    | DATAPROC_COMPARE
    | LOADS
    | STORES
    | MULTIPLIES
    | BRANCHES
    | BLOCK_TRANSFERS
    | {"swi"}
)


#: Every register set an instruction has reported, so that equal sets
#: share one object however many instructions report them.
_REG_SETS: Dict[FrozenSet[int], FrozenSet[int]] = {}


def _interned(regs: FrozenSet[int]) -> FrozenSet[int]:
    return _REG_SETS.setdefault(regs, regs)


@dataclass(frozen=True)
class Instruction:
    """One ARM-subset machine instruction.

    Parameters
    ----------
    mnemonic:
        Base mnemonic without condition or ``s`` suffix, e.g. ``"add"``.
    operands:
        Tuple of operand value objects.
    cond:
        Condition code; ``"al"`` (always) by default.
    set_flags:
        True for the ``s`` suffix (update NZCV from the result).
    """

    mnemonic: str
    operands: Tuple[object, ...] = field(default_factory=tuple)
    cond: str = "al"
    set_flags: bool = False

    def __post_init__(self) -> None:
        if self.mnemonic not in ALL_MNEMONICS:
            raise InstructionError(f"unknown mnemonic: {self.mnemonic!r}")
        if self.cond not in CONDITIONS:
            raise InstructionError(f"unknown condition: {self.cond!r}")
        object.__setattr__(self, "operands", tuple(self.operands))
        self._check_shape()

    # ------------------------------------------------------------------
    # shape validation
    # ------------------------------------------------------------------
    def _check_shape(self) -> None:
        m, ops = self.mnemonic, self.operands

        def need(n: int) -> None:
            if len(ops) != n:
                raise InstructionError(f"{m} takes {n} operands, got {len(ops)}")

        if m in DATAPROC_3OP:
            need(3)
            self._need_reg(0)
            self._need_reg(1)
            self._need_flex(2)
        elif m in DATAPROC_MOVE:
            need(2)
            self._need_reg(0)
            self._need_flex(1)
        elif m in DATAPROC_COMPARE:
            need(2)
            self._need_reg(0)
            self._need_flex(1)
            if not self.set_flags:
                object.__setattr__(self, "set_flags", True)
        elif m == "mul":
            need(3)
            for i in range(3):
                self._need_reg(i)
        elif m == "mla":
            need(4)
            for i in range(4):
                self._need_reg(i)
        elif m in LOADS | STORES:
            need(2)
            self._need_reg(0)
            if not isinstance(ops[1], (Mem, LabelRef)):
                raise InstructionError(f"{m} needs a memory or =label operand")
            if isinstance(ops[1], LabelRef) and m != "ldr":
                raise InstructionError("only ldr supports the =label pseudo form")
        elif m in BLOCK_TRANSFERS:
            need(1)
            if not isinstance(ops[0], RegList):
                raise InstructionError(f"{m} needs a register list")
        elif m in ("b", "bl"):
            need(1)
            if not isinstance(ops[0], LabelRef):
                raise InstructionError(f"{m} needs a label target")
        elif m == "bx":
            need(1)
            self._need_reg(0)
        elif m == "swi":
            need(1)
            if not isinstance(ops[0], Imm):
                raise InstructionError("swi needs an immediate")

    def _need_reg(self, i: int) -> None:
        if not isinstance(self.operands[i], Reg):
            raise InstructionError(
                f"{self.mnemonic} operand {i} must be a register, "
                f"got {self.operands[i]!r}"
            )

    def _need_flex(self, i: int) -> None:
        if not isinstance(self.operands[i], (Reg, Imm, ShiftedReg)):
            raise InstructionError(
                f"{self.mnemonic} operand {i} must be a register, immediate "
                f"or shifted register, got {self.operands[i]!r}"
            )

    # ------------------------------------------------------------------
    # rendering
    # ------------------------------------------------------------------
    def __str__(self) -> str:
        # Rendered once per instance: the text is the DFG node label and
        # the key of every digest, so the same objects are rendered many
        # times.  It lives outside the dataclass fields, so eq, hash and
        # replace() never see it.
        try:
            return self._text  # type: ignore[attr-defined]
        except AttributeError:
            text = self._render()
            object.__setattr__(self, "_text", text)
            return text

    def _render(self) -> str:
        name = self.mnemonic
        if self.cond != "al":
            name += self.cond
        if self.set_flags and self.mnemonic not in DATAPROC_COMPARE:
            name += "s"
        if not self.operands:
            return name
        if self.mnemonic == "ldr" and isinstance(self.operands[1], LabelRef):
            return f"{name} {self.operands[0]}, ={self.operands[1]}"
        return f"{name} " + ", ".join(str(op) for op in self.operands)

    # ------------------------------------------------------------------
    # classification helpers
    # ------------------------------------------------------------------
    @property
    def is_load(self) -> bool:
        return self.mnemonic in LOADS or self.mnemonic == "pop"

    @property
    def is_store(self) -> bool:
        return self.mnemonic in STORES or self.mnemonic == "push"

    @property
    def is_memory(self) -> bool:
        """True if the instruction accesses data memory.

        The ``ldr rX, =label`` pseudo form materializes an address and is
        resolved from a literal pool, i.e. from constant memory; it does
        not participate in data-memory ordering.
        """
        if self.mnemonic == "ldr" and isinstance(self.operands[1], LabelRef):
            return False
        return self.is_load or self.is_store

    @property
    def is_branch(self) -> bool:
        return self.mnemonic in BRANCHES

    @property
    def is_call(self) -> bool:
        return self.mnemonic == "bl"

    @property
    def is_return(self) -> bool:
        """True for the idioms that return from a procedure."""
        if self.mnemonic == "bx" and self.operands[0] == Reg(LR):
            return True
        if (
            self.mnemonic == "mov"
            and self.operands[0] == Reg(PC)
            and self.operands[1] == Reg(LR)
        ):
            return True
        if self.mnemonic == "pop" and PC in self.operands[0].regs:
            return True
        return False

    @property
    def is_terminator(self) -> bool:
        """True if control does not (necessarily) fall through.

        ``bl`` is *not* a terminator: control returns to the next
        instruction, so a call may appear mid-block.
        """
        if self.mnemonic in ("b", "bx"):
            return True
        if self.is_return:
            return True
        if self.writes_pc:
            return True
        return False

    @property
    def is_conditional(self) -> bool:
        return self.cond != "al"

    @property
    def writes_pc(self) -> bool:
        return PC in self.regs_written()

    @property
    def label_target(self) -> str | None:
        """Target label of a ``b``/``bl`` instruction, else None."""
        if self.mnemonic in ("b", "bl"):
            return self.operands[0].name
        return None

    # ------------------------------------------------------------------
    # register read/write sets (the raw material of the DFG builder)
    # ------------------------------------------------------------------
    # Liveness, absint, legality and the DFG builder ask the same
    # instructions for these sets every round, so each is computed once
    # per instance and cached outside the dataclass fields, like the
    # text.  The sets are interned: a few dozen distinct sets serve a
    # whole module.
    def regs_read(self) -> FrozenSet[int]:
        """Registers whose incoming value the instruction consumes."""
        try:
            return self._reads  # type: ignore[attr-defined]
        except AttributeError:
            regs = _interned(self._regs_read())
            object.__setattr__(self, "_reads", regs)
            return regs

    def regs_written(self) -> FrozenSet[int]:
        """Registers the instruction (re)defines."""
        try:
            return self._writes  # type: ignore[attr-defined]
        except AttributeError:
            regs = _interned(self._regs_written())
            object.__setattr__(self, "_writes", regs)
            return regs

    def _regs_read(self) -> FrozenSet[int]:
        m, ops = self.mnemonic, self.operands
        reads: set[int] = set()

        def flex(op: object) -> None:
            if isinstance(op, Reg):
                reads.add(op.num)
            elif isinstance(op, ShiftedReg):
                reads.add(op.num)

        if m in DATAPROC_3OP:
            reads.add(ops[1].num)
            flex(ops[2])
        elif m in DATAPROC_MOVE:
            flex(ops[1])
        elif m in DATAPROC_COMPARE:
            reads.add(ops[0].num)
            flex(ops[1])
        elif m == "mul":
            reads.add(ops[1].num)
            reads.add(ops[2].num)
        elif m == "mla":
            reads.add(ops[1].num)
            reads.add(ops[2].num)
            reads.add(ops[3].num)
        elif m in LOADS:
            if isinstance(ops[1], Mem):
                reads.add(ops[1].base)
                if ops[1].index is not None:
                    reads.add(ops[1].index)
        elif m in STORES:
            reads.add(ops[0].num)
            reads.add(ops[1].base)
            if ops[1].index is not None:
                reads.add(ops[1].index)
        elif m == "push":
            reads.add(SP)
            reads.update(ops[0].regs)
        elif m == "pop":
            reads.add(SP)
        elif m == "bx":
            reads.add(ops[0].num)
        elif m == "bl":
            # Argument registers: the callee may consume r0-r3 and sp.
            # Modelling the full calling convention keeps the DFG (and
            # therefore extraction order) conservative around calls.
            reads.update((0, 1, 2, 3, SP))
        elif m == "swi":
            reads.update((0, 1, 2, 3))
        return frozenset(reads)

    def _regs_written(self) -> FrozenSet[int]:
        m, ops = self.mnemonic, self.operands
        writes: set[int] = set()
        if m in DATAPROC_3OP or m in DATAPROC_MOVE:
            writes.add(ops[0].num)
        elif m in ("mul", "mla"):
            writes.add(ops[0].num)
        elif m in LOADS:
            writes.add(ops[0].num)
            if isinstance(ops[1], Mem) and ops[1].writeback:
                writes.add(ops[1].base)
        elif m in STORES:
            if ops[1].writeback:
                writes.add(ops[1].base)
        elif m == "push":
            writes.add(SP)
        elif m == "pop":
            writes.add(SP)
            writes.update(ops[0].regs)
        elif m == "bl":
            # Scratch registers and lr are clobbered across a call.
            writes.update((0, 1, 2, 3, 12, LR))
        elif m == "swi":
            writes.add(0)
        return frozenset(writes)

    def reads_flags(self) -> bool:
        """True if the instruction's behaviour depends on NZCV."""
        if self.cond != "al":
            return True
        return self.mnemonic in CARRY_READERS

    def writes_flags(self) -> bool:
        """True if the instruction updates NZCV."""
        return self.set_flags
