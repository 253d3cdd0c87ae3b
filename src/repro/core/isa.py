"""Instruction set of the reproduction cores.

A compact 64-bit register machine: 16 general-purpose registers (``r0``
hardwired to zero), word-addressed memory (8-byte words), posted
write-through stores, and L2-serialized atomics (test-and-set and
fetch-and-add) for synchronization -- the same primitive mix the paper's
multi-threaded benchmarks exercise on the T2.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Number of architectural registers per hardware thread.
NUM_REGS = 16

#: All register values are 64-bit unsigned.
WORD_MASK = (1 << 64) - 1


class Op(enum.IntEnum):
    """Opcodes.  Field usage is documented per group in :class:`Instr`."""

    NOP = 0
    #: rd <- imm
    LDI = 1
    #: rd <- ra (+-*&|^ etc.) rb
    ADD = 2
    SUB = 3
    MUL = 4
    AND = 5
    OR = 6
    XOR = 7
    SHL = 8
    SHR = 9
    #: rd <- 1 if ra < rb else 0 (unsigned)
    CMPLT = 10
    #: rd <- ra op imm
    ADDI = 11
    MULI = 12
    ANDI = 13
    ORI = 14
    XORI = 15
    SHLI = 16
    SHRI = 17
    #: rd <- mem[ra + imm]
    LD = 18
    #: mem[ra + imm] <- rb
    ST = 19
    #: atomic: rd <- mem[ra]; mem[ra] <- 1 (serialized at the L2 bank)
    TAS = 20
    #: atomic: rd <- mem[ra]; mem[ra] <- mem[ra] + rb
    FAA = 21
    #: if ra == rb: pc <- imm
    BEQ = 22
    BNE = 23
    #: unsigned comparisons
    BLT = 24
    BGE = 25
    #: pc <- imm
    JMP = 26
    #: application output: output[reg[ra]] <- reg[rb]
    OUT = 27
    #: trap (unexpected termination) if ra != rb
    ASSERT_EQ = 28
    #: thread finished
    HALT = 29
    #: rd <- ra % rb (rb != 0; 0 traps as illegal)
    MOD = 30
    #: rd <- ra / rb (unsigned; rb == 0 traps)
    DIV = 31


#: Opcodes that access memory through the uncore.
MEMORY_OPS = frozenset({Op.LD, Op.ST, Op.TAS, Op.FAA})

#: Opcodes that are serialized at the L2 bank (bypass the L1).
ATOMIC_OPS = frozenset({Op.TAS, Op.FAA})

#: Branch/jump opcodes whose ``imm`` is a code label (instruction index).
CONTROL_OPS = frozenset({Op.BEQ, Op.BNE, Op.BLT, Op.BGE, Op.JMP})


@dataclass(frozen=True, slots=True)
class Instr:
    """One instruction.

    Field conventions:
        * ALU register ops: ``rd, ra, rb``.
        * ALU immediate ops: ``rd, ra, imm``.
        * ``LD rd, [ra+imm]`` / ``ST rb, [ra+imm]``.
        * ``TAS rd, [ra]`` / ``FAA rd, [ra], rb``.
        * Branches compare ``ra`` with ``rb``; target is ``imm``.
        * ``OUT``: output slot ``reg[ra]`` receives value ``reg[rb]``.
    """

    op: Op
    rd: int = 0
    ra: int = 0
    rb: int = 0
    imm: int = 0

    def __post_init__(self) -> None:
        for field_name, value in (("rd", self.rd), ("ra", self.ra), ("rb", self.rb)):
            if not 0 <= value < NUM_REGS:
                raise ValueError(
                    f"{self.op.name}: register {field_name}={value} out of range"
                )

    def __str__(self) -> str:
        return (
            f"{self.op.name} rd=r{self.rd} ra=r{self.ra} rb=r{self.rb} "
            f"imm={self.imm}"
        )
