"""Tests for the ISA, program builder and core model (repro.core)."""

import pytest

from repro.core.cpu import Core, ThreadState, TrapKind, STORE_CREDITS
from repro.core.isa import Instr, Op
from repro.core.program import ProgramBuilder
from repro.soc.packets import CpxPacket, CpxType, PcxPacket, PcxType


def run_alu_program(build, cycles=200):
    """Run a single-thread program with no memory system; returns thread."""
    core = Core(
        0,
        issue_pcx=lambda pkt: True,
        check_addr=lambda addr: True,
        write_output=lambda s, v: None,
        alloc_reqid=lambda: 1,
    )
    b = ProgramBuilder("t")
    build(b)
    thread = core.add_thread(b.build())
    for cycle in range(cycles):
        core.step(cycle)
        if thread.state in (ThreadState.HALTED, ThreadState.TRAPPED):
            break
    return thread


class TestProgramBuilder:
    def test_label_resolution(self):
        b = ProgramBuilder("p")
        loop = b.label("loop")
        b.place(loop)
        b.jmp(loop)
        prog = b.build()
        assert prog[0].imm == 0

    def test_forward_label(self):
        b = ProgramBuilder("p")
        b.jmp("end")
        b.nop()
        b.place("end")
        b.halt()
        prog = b.build()
        assert prog[0].imm == 2

    def test_unplaced_label_raises(self):
        b = ProgramBuilder("p")
        b.jmp("nowhere")
        with pytest.raises(ValueError):
            b.build()

    def test_double_place_raises(self):
        b = ProgramBuilder("p")
        lbl = b.place("x")
        with pytest.raises(ValueError):
            b.place(lbl)

    def test_register_bounds_validated(self):
        with pytest.raises(ValueError):
            Instr(Op.ADD, rd=16)


class TestAluSemantics:
    def test_arith(self):
        t = run_alu_program(lambda b: (b.ldi(1, 7), b.ldi(2, 5), b.add(3, 1, 2),
                                       b.sub(4, 1, 2), b.mul(5, 1, 2), b.halt()))
        assert t.regs[3] == 12 and t.regs[4] == 2 and t.regs[5] == 35

    def test_wraparound_64bit(self):
        t = run_alu_program(lambda b: (b.ldi(1, (1 << 64) - 1), b.addi(1, 1, 1), b.halt()))
        assert t.regs[1] == 0

    def test_sub_underflow_wraps(self):
        t = run_alu_program(lambda b: (b.ldi(1, 0), b.addi(1, 1, -1), b.halt()))
        assert t.regs[1] == (1 << 64) - 1

    def test_logic_and_shifts(self):
        t = run_alu_program(lambda b: (b.ldi(1, 0b1100), b.ldi(2, 0b1010),
                                       b.and_(3, 1, 2), b.or_(4, 1, 2), b.xor(5, 1, 2),
                                       b.shli(6, 1, 2), b.shri(7, 1, 2), b.halt()))
        assert t.regs[3] == 0b1000 and t.regs[4] == 0b1110 and t.regs[5] == 0b0110
        assert t.regs[6] == 0b110000 and t.regs[7] == 0b11

    def test_cmplt_unsigned(self):
        t = run_alu_program(lambda b: (b.ldi(1, 3), b.ldi(2, 9),
                                       b.cmplt(3, 1, 2), b.cmplt(4, 2, 1), b.halt()))
        assert t.regs[3] == 1 and t.regs[4] == 0

    def test_div_mod(self):
        t = run_alu_program(lambda b: (b.ldi(1, 17), b.ldi(2, 5),
                                       b.div(3, 1, 2), b.mod(4, 1, 2), b.halt()))
        assert t.regs[3] == 3 and t.regs[4] == 2

    def test_div_by_zero_traps(self):
        t = run_alu_program(lambda b: (b.ldi(1, 17), b.div(3, 1, 0), b.halt()))
        assert t.trap is not None and t.trap.kind is TrapKind.ILLEGAL

    def test_r0_hardwired_zero(self):
        t = run_alu_program(lambda b: (b.ldi(0, 99), b.addi(1, 0, 1), b.halt()))
        assert t.regs[0] == 0 and t.regs[1] == 1

    def test_branch_loop(self):
        def build(b):
            b.ldi(1, 0)
            loop = b.place(b.label("loop"))
            b.addi(1, 1, 1)
            b.ldi(2, 5)
            b.blt(1, 2, "loop")
            b.halt()
        t = run_alu_program(build)
        assert t.regs[1] == 5

    def test_assert_eq_traps_on_mismatch(self):
        t = run_alu_program(lambda b: (b.ldi(1, 1), b.ldi(2, 2),
                                       b.assert_eq(1, 2), b.halt()))
        assert t.trap.kind is TrapKind.ASSERT_FAIL

    def test_pc_past_end_traps(self):
        t = run_alu_program(lambda b: b.nop())
        assert t.trap is not None and t.trap.kind is TrapKind.BAD_PC


class TestMemoryInterface:
    def make_core(self, accept=True, valid=True):
        self.issued = []
        reqids = iter(range(1, 1000))
        core = Core(
            0,
            issue_pcx=lambda pkt: (self.issued.append(pkt), accept)[1],
            check_addr=lambda addr: valid,
            write_output=lambda s, v: None,
            alloc_reqid=lambda: next(reqids),
        )
        return core

    def test_load_miss_stalls_until_cpx(self):
        core = self.make_core()
        b = ProgramBuilder("t")
        b.ldi(1, 0x100)
        b.ld(2, 1, 0)
        b.halt()
        t = core.add_thread(b.build())
        for c in range(5):
            core.step(c)
        assert t.state is ThreadState.WAIT_MEM
        pkt = self.issued[0]
        assert pkt.ptype is PcxType.LOAD and pkt.addr == 0x100
        core.deliver_cpx(
            CpxPacket(CpxType.LOAD_RET, 0, 0, 0x100, 0x55, pkt.reqid)
        )
        core.step(6)
        assert t.regs[2] == 0x55

    def test_l1_hit_after_fill(self):
        core = self.make_core()
        b = ProgramBuilder("t")
        b.ldi(1, 0x100)
        b.ld(2, 1, 0)
        b.ld(3, 1, 0)  # second load should hit the L1
        b.halt()
        t = core.add_thread(b.build())
        core.step(0)
        core.step(1)
        core.deliver_cpx(CpxPacket(CpxType.LOAD_RET, 0, 0, 0x100, 7, self.issued[0].reqid))
        for c in range(2, 6):
            core.step(c)
        assert t.regs[3] == 7
        assert len(self.issued) == 1  # only one PCX went out

    def test_store_is_posted(self):
        core = self.make_core()
        b = ProgramBuilder("t")
        b.ldi(1, 0x200)
        b.ldi(2, 42)
        b.st(2, 1, 0)
        b.ldi(3, 1)  # continues without waiting for the ack
        b.halt()
        t = core.add_thread(b.build())
        for c in range(6):
            core.step(c)
        assert t.state is ThreadState.HALTED
        assert t.stores_inflight == 1

    def test_store_allocates_l1_for_own_loads(self):
        core = self.make_core()
        b = ProgramBuilder("t")
        b.ldi(1, 0x200)
        b.ldi(2, 42)
        b.st(2, 1, 0)
        b.ld(3, 1, 0)
        b.halt()
        t = core.add_thread(b.build())
        for c in range(6):
            core.step(c)
        assert t.regs[3] == 42

    def test_store_credit_exhaustion_stalls(self):
        core = self.make_core()
        b = ProgramBuilder("t")
        b.ldi(1, 0x200)
        b.ldi(2, 1)
        for i in range(STORE_CREDITS + 2):
            b.st(2, 1, 8 * i)
        b.halt()
        t = core.add_thread(b.build())
        for c in range(40):
            core.step(c)
        assert t.state is ThreadState.RETRY
        assert t.stores_inflight == STORE_CREDITS
        # acks free credits and let the thread finish
        for pkt in list(self.issued):
            if pkt.ptype is PcxType.STORE:
                core.deliver_cpx(
                    CpxPacket(CpxType.STORE_ACK, 0, 0, pkt.addr, 0, pkt.reqid)
                )
        for c in range(40, 80):
            core.step(c)
        assert t.state is ThreadState.HALTED

    def test_atomic_drains_stores_first(self):
        core = self.make_core()
        b = ProgramBuilder("t")
        b.ldi(1, 0x200)
        b.ldi(2, 1)
        b.st(2, 1, 0)
        b.tas(3, 1)
        b.halt()
        t = core.add_thread(b.build())
        for c in range(10):
            core.step(c)
        # only the store went out; the TAS waits for the ack
        assert [p.ptype for p in self.issued] == [PcxType.STORE]
        store = self.issued[0]
        core.deliver_cpx(CpxPacket(CpxType.STORE_ACK, 0, 0, store.addr, 0, store.reqid))
        for c in range(10, 20):
            core.step(c)
        assert PcxType.ATOMIC_TAS in [p.ptype for p in self.issued]

    def test_bad_address_traps(self):
        core = self.make_core(valid=False)
        b = ProgramBuilder("t")
        b.ldi(1, 0xDEAD00)
        b.ld(2, 1, 0)
        b.halt()
        t = core.add_thread(b.build())
        core.step(0)
        core.step(1)
        assert t.trap.kind is TrapKind.BAD_ADDR

    def test_misaligned_traps(self):
        core = self.make_core()
        b = ProgramBuilder("t")
        b.ldi(1, 0x101)
        b.ld(2, 1, 0)
        b.halt()
        t = core.add_thread(b.build())
        core.step(0)
        core.step(1)
        assert t.trap.kind is TrapKind.MISALIGNED

    def test_unmatched_cpx_dropped(self):
        core = self.make_core()
        core.add_thread(ProgramBuilder("t").build.__self__.build() if False else ProgramBuilder("t").build())
        core.deliver_cpx(CpxPacket(CpxType.LOAD_RET, 0, 0, 0x0, 0, 999))
        assert core.dropped_cpx == 1

    def test_invalidate_drops_line(self):
        core = self.make_core()
        core.l1_fill(0x100, 1)
        core.l1_fill(0x108, 2)
        core.deliver_cpx(CpxPacket(CpxType.INVALIDATE, 0, 0, 0x100, 0, 0))
        assert core.l1_lookup(0x100) is None
        assert core.l1_lookup(0x108) is None
        assert core.invalidations == 1

    @pytest.mark.parametrize("l1_words", [1, 2, 4, 64])
    def test_invalidate_drops_line_in_any_l1_size(self, l1_words):
        """Below 8 words several of a line's words share one slot; the
        invalidate clears a slot only if it holds a word of the line."""
        core = Core(
            0,
            issue_pcx=lambda pkt: True,
            check_addr=lambda addr: True,
            write_output=lambda s, v: None,
            alloc_reqid=lambda: 1,
            l1_words=l1_words,
        )
        line = range(0x100, 0x140, 8)
        for addr in (0x210, 0x1F8, 0x100, 0x128):
            core.l1_fill(addr, addr)
        before = list(core._l1_tags)
        core._l1_dirty = set()
        core.l1_invalidate_line(0x118)
        held = {i for i, tag in enumerate(before) if tag in line}
        assert held  # the line is present before the invalidate
        assert core._l1_dirty == held
        assert core._l1_tags == [
            -1 if i in held else tag for i, tag in enumerate(before)
        ]
        assert all(core.l1_lookup(a) is None for a in line)
        if l1_words == 4:
            # slots 0 and 1 held words 0 and 5 of the line; slot 2 holds
            # 0x210 of another line and slot 3 holds 0x1F8
            assert core._l1_tags == [-1, -1, 0x210, 0x1F8]

    def test_round_robin_fairness(self):
        core = self.make_core()
        progs = []
        for _ in range(2):
            b = ProgramBuilder("t")
            b.ldi(1, 0)
            for _i in range(10):
                b.addi(1, 1, 1)
            b.halt()
            progs.append(core.add_thread(b.build()))
        for c in range(30):
            core.step(c)
        assert all(t.state is ThreadState.HALTED for t in progs)

    def test_snapshot_restore(self):
        core = self.make_core()
        b = ProgramBuilder("t")
        b.ldi(1, 5)
        b.halt()
        t = core.add_thread(b.build())
        core.step(0)
        snap = core.snapshot()
        core.step(1)
        core.restore(snap)
        assert t.regs[1] == 5
        assert t.state is ThreadState.READY
