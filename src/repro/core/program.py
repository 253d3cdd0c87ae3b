"""Program builder (assembler) for the reproduction ISA.

Workloads construct per-thread programs with :class:`ProgramBuilder`,
which provides label resolution for branch targets and convenience
emitters.  The result is an immutable :class:`Program`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.isa import CONTROL_OPS, Instr, Op

#: Every distinct instruction built in this process, keyed by value.
#: ``build`` returns the stored object for an equal instruction, so
#: programs share their ``Instr`` objects (and the compiled handlers
#: keyed by them, see ``repro.core.cpu``).
_INTERNED: dict[Instr, Instr] = {}


@dataclass(frozen=True)
class Program:
    """An immutable sequence of instructions plus a name for diagnostics."""

    name: str
    instrs: tuple[Instr, ...]

    def __len__(self) -> int:
        return len(self.instrs)

    def __getitem__(self, index: int) -> Instr:
        return self.instrs[index]


class _Label:
    """A forward-referenceable branch target."""

    __slots__ = ("name", "position")

    def __init__(self, name: str) -> None:
        self.name = name
        self.position: int | None = None


@dataclass
class ProgramBuilder:
    """Fluent assembler with labels.

    Example::

        b = ProgramBuilder("sum")
        loop = b.label("loop")
        b.ldi(1, 0)                  # r1 = 0 (accumulator)
        b.ldi(2, 0)                  # r2 = i
        b.place(loop)
        b.ld(3, 4, 0)                # r3 = mem[r4]
        b.add(1, 1, 3)
        b.addi(4, 4, 8)
        b.addi(2, 2, 1)
        b.blt(2, 5, loop)            # while i < r5
        b.halt()
        program = b.build()
    """

    name: str
    _instrs: list[tuple] = field(default_factory=list)
    _labels: dict[str, _Label] = field(default_factory=dict)

    # -- labels ---------------------------------------------------------
    def label(self, name: str) -> _Label:
        """Create (or fetch) a label object usable as a branch target."""
        if name not in self._labels:
            self._labels[name] = _Label(name)
        return self._labels[name]

    def place(self, label: "_Label | str") -> "_Label":
        """Bind a label to the current position."""
        if isinstance(label, str):
            label = self.label(label)
        if label.position is not None:
            raise ValueError(f"label {label.name!r} placed twice")
        label.position = len(self._instrs)
        return label

    @property
    def here(self) -> int:
        """Current instruction index."""
        return len(self._instrs)

    # -- raw emission ---------------------------------------------------
    def emit(self, op: Op, rd: int = 0, ra: int = 0, rb: int = 0, imm=0) -> None:
        """Emit one instruction; ``imm`` may be a label for control ops."""
        self._instrs.append((op, rd, ra, rb, imm))

    # -- convenience emitters -------------------------------------------
    def nop(self) -> None:
        self.emit(Op.NOP)

    def ldi(self, rd: int, imm: int) -> None:
        self.emit(Op.LDI, rd=rd, imm=imm)

    def add(self, rd: int, ra: int, rb: int) -> None:
        self.emit(Op.ADD, rd=rd, ra=ra, rb=rb)

    def sub(self, rd: int, ra: int, rb: int) -> None:
        self.emit(Op.SUB, rd=rd, ra=ra, rb=rb)

    def mul(self, rd: int, ra: int, rb: int) -> None:
        self.emit(Op.MUL, rd=rd, ra=ra, rb=rb)

    def div(self, rd: int, ra: int, rb: int) -> None:
        self.emit(Op.DIV, rd=rd, ra=ra, rb=rb)

    def mod(self, rd: int, ra: int, rb: int) -> None:
        self.emit(Op.MOD, rd=rd, ra=ra, rb=rb)

    def and_(self, rd: int, ra: int, rb: int) -> None:
        self.emit(Op.AND, rd=rd, ra=ra, rb=rb)

    def or_(self, rd: int, ra: int, rb: int) -> None:
        self.emit(Op.OR, rd=rd, ra=ra, rb=rb)

    def xor(self, rd: int, ra: int, rb: int) -> None:
        self.emit(Op.XOR, rd=rd, ra=ra, rb=rb)

    def shl(self, rd: int, ra: int, rb: int) -> None:
        self.emit(Op.SHL, rd=rd, ra=ra, rb=rb)

    def shr(self, rd: int, ra: int, rb: int) -> None:
        self.emit(Op.SHR, rd=rd, ra=ra, rb=rb)

    def cmplt(self, rd: int, ra: int, rb: int) -> None:
        self.emit(Op.CMPLT, rd=rd, ra=ra, rb=rb)

    def addi(self, rd: int, ra: int, imm: int) -> None:
        self.emit(Op.ADDI, rd=rd, ra=ra, imm=imm)

    def muli(self, rd: int, ra: int, imm: int) -> None:
        self.emit(Op.MULI, rd=rd, ra=ra, imm=imm)

    def andi(self, rd: int, ra: int, imm: int) -> None:
        self.emit(Op.ANDI, rd=rd, ra=ra, imm=imm)

    def ori(self, rd: int, ra: int, imm: int) -> None:
        self.emit(Op.ORI, rd=rd, ra=ra, imm=imm)

    def xori(self, rd: int, ra: int, imm: int) -> None:
        self.emit(Op.XORI, rd=rd, ra=ra, imm=imm)

    def shli(self, rd: int, ra: int, imm: int) -> None:
        self.emit(Op.SHLI, rd=rd, ra=ra, imm=imm)

    def shri(self, rd: int, ra: int, imm: int) -> None:
        self.emit(Op.SHRI, rd=rd, ra=ra, imm=imm)

    def ld(self, rd: int, ra: int, imm: int = 0) -> None:
        self.emit(Op.LD, rd=rd, ra=ra, imm=imm)

    def st(self, rb: int, ra: int, imm: int = 0) -> None:
        self.emit(Op.ST, ra=ra, rb=rb, imm=imm)

    def tas(self, rd: int, ra: int) -> None:
        self.emit(Op.TAS, rd=rd, ra=ra)

    def faa(self, rd: int, ra: int, rb: int) -> None:
        self.emit(Op.FAA, rd=rd, ra=ra, rb=rb)

    def beq(self, ra: int, rb: int, target: "_Label | str | int") -> None:
        self.emit(Op.BEQ, ra=ra, rb=rb, imm=self._target(target))

    def bne(self, ra: int, rb: int, target: "_Label | str | int") -> None:
        self.emit(Op.BNE, ra=ra, rb=rb, imm=self._target(target))

    def blt(self, ra: int, rb: int, target: "_Label | str | int") -> None:
        self.emit(Op.BLT, ra=ra, rb=rb, imm=self._target(target))

    def bge(self, ra: int, rb: int, target: "_Label | str | int") -> None:
        self.emit(Op.BGE, ra=ra, rb=rb, imm=self._target(target))

    def jmp(self, target: "_Label | str | int") -> None:
        self.emit(Op.JMP, imm=self._target(target))

    def out(self, slot_reg: int, value_reg: int) -> None:
        self.emit(Op.OUT, ra=slot_reg, rb=value_reg)

    def assert_eq(self, ra: int, rb: int) -> None:
        self.emit(Op.ASSERT_EQ, ra=ra, rb=rb)

    def halt(self) -> None:
        self.emit(Op.HALT)

    # -- common idioms ---------------------------------------------------
    def spin_lock(self, lock_addr_reg: int, scratch: int) -> None:
        """Acquire a spin lock whose address is in ``lock_addr_reg``."""
        retry = self.label(f"_lock{self.here}")
        self.place(retry)
        self.tas(scratch, lock_addr_reg)
        self.bne(scratch, 0, retry)

    def spin_unlock(self, lock_addr_reg: int) -> None:
        """Release a spin lock (store zero)."""
        self.st(0, lock_addr_reg, 0)

    def barrier(self, counter_addr_reg: int, nthreads: int, s1: int, s2: int) -> None:
        """Sense-free barrier: FAA a counter, spin until it reaches a
        multiple of ``nthreads``.

        Suitable for a single use per counter address; workloads allocate
        one counter word per barrier episode.
        """
        self.ldi(s2, 1)
        self.faa(s1, counter_addr_reg, s2)
        wait = self.label(f"_bar{self.here}")
        self.place(wait)
        # Atomic read (FAA of zero) so the spin always observes L2 state.
        self.ldi(s2, 0)
        self.faa(s1, counter_addr_reg, s2)
        self.ldi(s2, nthreads)
        self.blt(s1, s2, wait)

    # -- finalization -----------------------------------------------------
    def build(self) -> Program:
        """Resolve labels and freeze the program (equal instructions are
        one interned object)."""
        intern = _INTERNED.setdefault
        resolved: list[Instr] = []
        for op, rd, ra, rb, imm in self._instrs:
            if isinstance(imm, _Label):
                if imm.position is None:
                    raise ValueError(f"label {imm.name!r} never placed")
                imm = imm.position
            if op in CONTROL_OPS and not 0 <= imm <= len(self._instrs):
                raise ValueError(f"{op.name}: branch target {imm} out of program")
            instr = Instr(op, rd=rd, ra=ra, rb=rb, imm=imm)
            resolved.append(intern(instr, instr))
        return Program(self.name, tuple(resolved))

    def _target(self, target: "_Label | str | int"):
        if isinstance(target, str):
            return self.label(target)
        return target
