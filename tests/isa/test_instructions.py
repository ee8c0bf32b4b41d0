"""Instruction object model: shape checks, classification, access sets."""

import pytest

from repro.isa.instructions import Instruction, InstructionError
from repro.isa.operands import Imm, LabelRef, Mem, Reg, RegList, ShiftedReg
from repro.isa.registers import LR, PC, SP


def ins(text):
    from repro.isa.assembler import parse_instruction

    return parse_instruction(text)


class TestShapes:
    def test_unknown_mnemonic(self):
        with pytest.raises(InstructionError):
            Instruction("frob", (Reg(0),))

    def test_unknown_condition(self):
        with pytest.raises(InstructionError):
            Instruction("mov", (Reg(0), Imm(1)), cond="xx")

    def test_wrong_arity(self):
        with pytest.raises(InstructionError):
            Instruction("add", (Reg(0), Reg(1)))

    def test_compare_forces_set_flags(self):
        insn = Instruction("cmp", (Reg(0), Imm(3)))
        assert insn.set_flags

    def test_ldr_needs_memory_operand(self):
        with pytest.raises(InstructionError):
            Instruction("ldr", (Reg(0), Reg(1)))

    def test_str_pseudo_rejected(self):
        with pytest.raises(InstructionError):
            Instruction("str", (Reg(0), LabelRef("x")))

    def test_branch_needs_label(self):
        with pytest.raises(InstructionError):
            Instruction("b", (Reg(0),))


class TestClassification:
    def test_return_idioms(self):
        assert ins("bx lr").is_return
        assert ins("mov pc, lr").is_return
        assert ins("pop {r4, pc}").is_return
        assert not ins("pop {r4, lr}").is_return
        assert not ins("mov pc, r0").is_return

    def test_terminators(self):
        assert ins("b foo").is_terminator
        assert ins("bx lr").is_terminator
        assert ins("mov pc, r3").is_terminator
        assert not ins("bl foo").is_terminator
        assert not ins("add r0, r1, r2").is_terminator

    def test_call(self):
        assert ins("bl foo").is_call
        assert not ins("b foo").is_call

    def test_memory_classification(self):
        assert ins("ldr r0, [r1]").is_memory
        assert ins("push {r0}").is_memory
        assert not ins("add r0, r0, #1").is_memory
        # pseudo loads read the literal pool, not data memory
        assert not ins("ldr r0, =table").is_memory

    def test_conditional(self):
        assert ins("addeq r0, r0, #1").is_conditional
        assert not ins("add r0, r0, #1").is_conditional

    def test_label_target(self):
        assert ins("bl foo").label_target == "foo"
        assert ins("b bar").label_target == "bar"
        assert ins("bx lr").label_target is None


class TestAccessSets:
    def test_cached_sets_match_a_fresh_computation(self):
        """Every instruction of the bundled programs reports the sets a
        fresh computation gives, and equal sets are one object."""
        from repro.workloads import PROGRAMS, compile_workload

        interned = {}
        for name in PROGRAMS:
            for func in compile_workload(name).functions:
                for block in func.blocks:
                    for insn in block.instructions:
                        for cached, fresh in (
                            (insn.regs_read(), insn._regs_read()),
                            (insn.regs_written(), insn._regs_written()),
                        ):
                            assert cached == fresh
                            assert interned.setdefault(cached, cached) \
                                is cached

    def test_cached_sets_invisible_to_eq_hash_and_replace(self):
        import dataclasses

        cached, fresh = ins("ldr r0, [r1, #4]!"), ins("ldr r0, [r1, #4]!")
        assert cached.regs_written() == {0, 1}
        assert cached.regs_read() is cached.regs_read()
        assert cached == fresh and hash(cached) == hash(fresh)
        other = dataclasses.replace(cached, operands=(Reg(2), Mem(3)))
        assert other.regs_read() == {3}
        assert other.regs_written() == {2}

    def test_dataproc_reads_writes(self):
        insn = ins("add r0, r1, r2")
        assert insn.regs_read() == {1, 2}
        assert insn.regs_written() == {0}

    def test_shifted_operand_read(self):
        insn = ins("add r0, r1, r2, lsl #3")
        assert insn.regs_read() == {1, 2}

    def test_mov_immediate(self):
        insn = ins("mov r5, #9")
        assert insn.regs_read() == set()
        assert insn.regs_written() == {5}

    def test_compare_writes_nothing(self):
        insn = ins("cmp r1, r2")
        assert insn.regs_read() == {1, 2}
        assert insn.regs_written() == set()
        assert insn.writes_flags()

    def test_load_postindex_writeback(self):
        insn = ins("ldr r3, [r1], #4")
        assert insn.regs_read() == {1}
        assert insn.regs_written() == {3, 1}

    def test_store_reads_value_and_base(self):
        insn = ins("str r0, [r2, #8]")
        assert insn.regs_read() == {0, 2}
        assert insn.regs_written() == set()

    def test_store_writeback(self):
        insn = ins("str r0, [r2, #8]!")
        assert insn.regs_written() == {2}

    def test_push_pop(self):
        push = ins("push {r4, r5, lr}")
        assert push.regs_read() == {4, 5, LR, SP}
        assert push.regs_written() == {SP}
        pop = ins("pop {r4, r5, pc}")
        assert pop.regs_read() == {SP}
        assert pop.regs_written() == {4, 5, PC, SP}

    def test_call_convention(self):
        insn = ins("bl foo")
        assert insn.regs_read() == {0, 1, 2, 3, SP}
        assert insn.regs_written() == {0, 1, 2, 3, 12, LR}

    def test_mla_reads_three(self):
        insn = ins("mla r0, r1, r2, r3")
        assert insn.regs_read() == {1, 2, 3}
        assert insn.regs_written() == {0}

    def test_flag_readers(self):
        assert ins("addeq r0, r0, #1").reads_flags()
        assert ins("adc r0, r0, r1").reads_flags()
        assert not ins("add r0, r0, r1").reads_flags()

    def test_flag_writers(self):
        assert ins("adds r0, r0, #1").writes_flags()
        assert ins("cmp r0, #1").writes_flags()
        assert not ins("add r0, r0, #1").writes_flags()


class TestRendering:
    @pytest.mark.parametrize(
        "text",
        [
            "add r0, r1, r2",
            "adds r0, r1, #4",
            "addeqs r0, r1, r2, lsl #2",
            "ldr r3, [r1], #4",
            "strb r0, [r1, #3]",
            "push {r4, r5, lr}",
            "pop {pc}",
            "mov pc, lr",
            "bx lr",
            "cmp r0, #0",
            "swi #1",
            "ldr r0, =table",
            "b loop",
            "blne helper",
        ],
    )
    def test_text_roundtrip(self, text):
        assert str(ins(text)) == text

    def test_text_rendered_once_per_instance(self):
        insn = ins("add r0, r1, r2")
        assert str(insn) is str(insn)

    def test_cached_text_invisible_to_eq_hash_and_replace(self):
        import dataclasses
        import pickle

        rendered, fresh = ins("add r0, r1, r2"), ins("add r0, r1, r2")
        str(rendered)
        assert rendered == fresh
        assert hash(rendered) == hash(fresh)
        other = dataclasses.replace(rendered, operands=(Reg(3), Reg(1), Reg(2)))
        assert str(other) == "add r3, r1, r2"
        clone = pickle.loads(pickle.dumps(rendered))
        assert clone == rendered and str(clone) == "add r0, r1, r2"
