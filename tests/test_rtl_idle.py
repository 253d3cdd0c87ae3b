"""Idle RTL sleeps: the properties the event engine's active set needs.

The L2C, CCX and PCIe co-simulation adapters leave the active set while
both RTL copies report :meth:`idle`, so ``idle()`` must imply that a
tick is a no-op -- no output, no state change -- whatever a fault did
to the registers.  The MCU never sleeps; its tick skips the datapath
stages when they are idle, which must equal the full tick.  Injection
into a sleeping adapter must wake it on the very next step, and the
arithmetic ``flip_target_bit`` must address exactly the flip-flop
``target_bits()`` names.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.faults.inventory import build_module
from repro.mem.dram import Dram
from repro.mixedmode.adapters import make_adapter
from repro.rtl.registers import FlipFlopClass, RegisterArray
from repro.soc.address import AddressMap
from repro.soc.packets import (
    CpxPacket,
    CpxType,
    McuOp,
    McuRequest,
    PcxPacket,
    PcxType,
)
from repro.system.machine import Machine, MachineConfig
from repro.uncore.ccx import _LOST, PORTS, CcxRtl
from repro.uncore.l2c import L2cRtl
from repro.uncore.mcu import McuRtl
from repro.uncore.pcie import PcieRtl

AMAP = AddressMap(l2_banks=8, l2_sets=8, mcus=4)


class _Port:
    """Records the PCIe DMA write stream."""

    def __init__(self) -> None:
        self.writes: list[tuple[int, int]] = []

    def write_word(self, addr: int, value: int) -> None:
        self.writes.append((addr, value))


def _flips(module, max_size: int = 4, names=None):
    """Random (register, entry, bit) flips, register names drawn
    uniformly (from ``names`` when given) so control registers are hit
    as often as wide banks."""
    regs = module.registers()

    @st.composite
    def flip(draw):
        name = draw(st.sampled_from(sorted(names or regs)))
        reg = regs[name]
        entries = reg.entries if isinstance(reg, RegisterArray) else 1
        return (
            name,
            draw(st.integers(0, entries - 1)),
            draw(st.integers(0, reg.width - 1)),
        )

    return st.lists(flip(), min_size=1, max_size=max_size)


def _single_flips(module):
    """Every register's first and last flip-flop."""
    for name, reg in module.registers().items():
        entries = reg.entries if isinstance(reg, RegisterArray) else 1
        yield name, 0, 0
        yield name, entries - 1, reg.width - 1


def _run_checked(subject, flips):
    """Flip, then tick a few cycles; every tick taken while ``idle()``
    holds must produce no output and leave all state unchanged."""
    module, tick, observe = subject
    cycle = 0
    for name, entry, bit in flips:
        module.flip_bit(name, entry, bit)
        for _ in range(4):
            if module.idle():
                before = (module.snapshot(), observe())
                assert not tick(cycle)
                assert (module.snapshot(), observe()) == before
            else:
                tick(cycle)
            cycle += 1


def _l2c():
    sent = []
    m = L2cRtl(0, AMAP, 4, send_mcu=sent.append)
    return m, m.tick, lambda: (m.protocol_errors, len(sent))


def _ccx():
    m = CcxRtl(AMAP)

    def tick(cycle):
        assert m.tick(cycle) is None
        return m.deliver_pcx(cycle) + m.deliver_cpx(cycle)

    return m, tick, lambda: (m.protocol_errors, m.dropped)


def _pcie():
    port = _Port()
    m = PcieRtl(port)
    m.file_words = [11, 22, 33]
    return m, m.tick, lambda: (len(port.writes), m.finish_cycle)


#: the models whose adapters sleep: component -> (module, tick, observe)
SLEEPERS = {"l2c": _l2c, "ccx": _ccx, "pcie": _pcie}


class TestIdleTickIsNoop:
    @pytest.mark.parametrize("component", sorted(SLEEPERS))
    def test_every_single_flip(self, component):
        subject = SLEEPERS[component]()
        module = subject[0]
        fresh = module.snapshot()
        for flip in _single_flips(module):
            module.restore(fresh)
            _run_checked(subject, [flip])

    @settings(max_examples=60, deadline=None)
    @given(flips=_flips(_l2c()[0]))
    def test_l2c_flip_sequences(self, flips):
        _run_checked(_l2c(), flips)

    @settings(max_examples=60, deadline=None)
    @given(flips=_flips(_ccx()[0]))
    def test_ccx_flip_sequences(self, flips):
        _run_checked(_ccx(), flips)

    @settings(max_examples=60, deadline=None)
    @given(flips=_flips(_pcie()[0]))
    def test_pcie_flip_sequences(self, flips):
        _run_checked(_pcie(), flips)

    @pytest.mark.parametrize(
        "component,name",
        [("l2c", "iq_count"), ("l2c", "fq_valid"), ("ccx", "cpx_out_valid"),
         ("pcie", "fetch_valid")],
    )
    def test_live_registers_wake_the_module(self, component, name):
        """The properties above are not vacuous: a flip in a register
        the tick consumes makes the module non-idle."""
        module = SLEEPERS[component]()[0]
        assert module.idle()
        module.flip_bit(name, 0, 0)
        assert not module.idle()


def _reread_arbitrate(m: CcxRtl) -> None:
    """CCX arbitration that re-reads every head at every look (no memo)."""
    for ch, route_by_addr in ((m._pcx_ch, True), (m._cpx_ch, False)):
        out_valid, rr = ch.out_valid.values, ch.rr.values
        for dest in range(PORTS):
            if out_valid[dest]:
                continue
            for offset in range(PORTS):
                src = (rr[dest] + offset) % PORTS
                fields = m._head_fields(ch, src)
                if fields is None or fields is _LOST:
                    continue
                route = m.amap.bank_of(fields[3]) if route_by_addr else fields[1]
                if route & 7 != dest:
                    continue
                out_valid[dest] = 1
                for reg, value in zip(ch.out, fields):
                    reg.values[dest] = value
                m._pop(ch, src)
                rr[dest] = (src + 1) % PORTS
                break


_CCX_CONTROL = [
    f"{d}_{r}" for d in ("pcx", "cpx")
    for r in ("fifo_valid", "count", "head", "tail", "rr", "out_valid",
              "fifo_addr", "fifo_core")
]
_ccx_action = st.one_of(
    _flips(_ccx()[0], max_size=1, names=_CCX_CONTROL).map(lambda f: ("flip", f[0])),
    st.tuples(st.booleans(), st.integers(0, 7), st.integers(0, 7),
              st.integers(0, 1 << 12)).map(lambda t: ("push", t)),
    st.integers(1, 6).map(lambda n: ("tick", n)),
)


class TestCcxArbitration:
    @settings(max_examples=80, deadline=None)
    @given(actions=st.lists(_ccx_action, min_size=1, max_size=30))
    def test_memoized_heads_equal_rereads(self, actions):
        """Each source's head is read once per tick and a lost head is
        never memoized: the result equals re-reading at every look."""
        memo, reread = CcxRtl(AMAP), CcxRtl(AMAP)
        cycle = 0
        for kind, arg in actions:
            if kind == "flip":
                memo.flip_bit(*arg)
                reread.flip_bit(*arg)
            elif kind == "push":
                to_bank, port, core, addr = arg
                pcx = PcxPacket(PcxType.LOAD, port, 0, addr * 64, 0, 1)
                cpx = CpxPacket(CpxType.LOAD_RET, core, 0, addr, 0, 1)
                for m in (memo, reread):
                    if to_bank:
                        m.send_pcx(0, pcx, cycle)
                    else:
                        m.send_cpx(cpx, cycle, port)
            else:
                for _ in range(arg):
                    memo.tick(cycle)
                    _reread_arbitrate(reread)
                    assert memo.snapshot() == reread.snapshot()
                    assert memo.protocol_errors == reread.protocol_errors
                    if cycle % 3 == 0:  # let output stages back up sometimes
                        assert memo.deliver_pcx(cycle) == reread.deliver_pcx(cycle)
                        assert memo.deliver_cpx(cycle) == reread.deliver_cpx(cycle)
                    cycle += 1


def _full_mcu_tick(m: McuRtl, cycle: int):
    """The MCU tick without the idle fast path (every stage, every cycle)."""
    m.replies = []
    if m.write_disable:
        return m.replies
    m._refresh_tick()
    m._complete_bank_ops()
    m._issue_from_queue()
    m._drain_rrq()
    m.phy_strobe_align.write(
        ((m.phy_strobe_align.value << 1) | (m.refresh_ctr.value & 1))
        & ((1 << 36) - 1)
    )
    return m.replies


def _check_mcu_ticks(fast: McuRtl, full: McuRtl, cycle: int, n: int) -> int:
    for _ in range(n):
        assert fast.tick(cycle) == _full_mcu_tick(full, cycle)
        cycle += 1
    assert fast.snapshot() == full.snapshot()
    assert fast.protocol_errors == full.protocol_errors
    assert fast.dram.snapshot() == full.dram.snapshot()
    return cycle


_request = st.tuples(
    st.booleans(), st.integers(0, 63), st.integers(0, 1), st.integers(0, 0xFFFF)
).map(
    lambda t: McuRequest(
        McuOp.WRITE if t[0] else McuOp.READ,
        t[1] * 64,
        (t[3],) * 8 if t[0] else None,
        t[2],
        t[3],
    )
)
_mcu_action = st.one_of(
    _flips(McuRtl(0, Dram()), max_size=1).map(lambda f: ("flip", f[0])),
    _request.map(lambda r: ("accept", r)),
    st.integers(1, 80).map(lambda n: ("tick", n)),
)


class TestMcuFastPath:
    def test_every_single_flip(self):
        fast, full = McuRtl(0, Dram()), McuRtl(0, Dram())
        fresh = fast.snapshot()
        for flip in _single_flips(fast):
            for m in (fast, full):
                m.restore(fresh)
                m.flip_bit(*flip)
            _check_mcu_ticks(fast, full, 0, 8)

    @settings(max_examples=60, deadline=None)
    @given(actions=st.lists(_mcu_action, min_size=1, max_size=12))
    def test_fast_path_equals_full_tick(self, actions):
        fast, full = McuRtl(0, Dram()), McuRtl(0, Dram())
        # start near a refresh so the refresh path is exercised too
        for m in (fast, full):
            m.refresh_ctr.write(2000)
        cycle = 0
        for kind, arg in actions:
            if kind == "flip":
                fast.flip_bit(*arg)
                full.flip_bit(*arg)
            elif kind == "accept":
                assert fast.accept(arg, cycle) == full.accept(arg, cycle)
            else:
                cycle = _check_mcu_ticks(fast, full, cycle, arg)


CFG = MachineConfig(cores=2, threads_per_core=2, l2_banks=8, l2_sets=8, l2_ways=4)


class TestSleepingAdapterWakes:
    @pytest.mark.parametrize(
        "component,register,woke",
        [
            ("l2c", "iq_count", lambda t: t.protocol_errors == 1),
            ("ccx", "pcx_count", lambda t: t.protocol_errors == 1),
            ("pcie", "fetch_valid", lambda t: t.pay_valid.value == 1),
        ],
    )
    @pytest.mark.parametrize("inject", ["flip", "flip_at", "force_at"])
    def test_injection_wakes_on_next_step(self, component, register, woke, inject):
        machine = Machine(CFG)
        adapter = make_adapter(machine, component, 0)
        adapter.attach()
        assert adapter.next_active_cycle() is None
        ticks = []
        tick = adapter.target.tick

        def counted(cycle):
            ticks.append(cycle)
            return tick(cycle)

        adapter.target.tick = counted
        for _ in range(3):
            machine.step()
        assert ticks == []  # asleep: the event engine skips it
        if inject == "flip":
            adapter.flip(adapter.target.target_bits().index((register, 0, 0)))
        elif inject == "flip_at":
            adapter.flip_at(register, 0, 0)
        else:
            assert adapter.force_at(register, 0, 0, 1)
        assert adapter.next_active_cycle() == 0
        cycle = machine.cycle
        machine.step()
        assert ticks == [cycle]
        assert woke(adapter.target)

    def test_mcu_adapter_never_sleeps(self):
        machine = Machine(CFG)
        adapter = make_adapter(machine, "mcu", 0)
        adapter.attach()
        for _ in range(3):
            machine.step()
        assert adapter.target.refresh_ctr.value == 3


#: Table 3 / Table 4 flip-flop counts: total, target, protected, inactive
TABLE4 = {
    "l2c": (31_675, 18_369, 8_650, 4_656),
    "mcu": (18_068, 12_007, 4_782, 1_279),
    "ccx": (41_521, 41_181, 0, 340),
    "pcie": (29_022, 23_483, 5_539, 0),
}


@pytest.mark.parametrize("component", sorted(TABLE4))
class TestTargetAddressing:
    def test_table4_counts(self, component):
        module = build_module(component)
        counts = module.flip_flop_count_by_class()
        assert (
            module.flip_flop_count(),
            counts[FlipFlopClass.TARGET],
            counts[FlipFlopClass.PROTECTED],
            counts[FlipFlopClass.INACTIVE],
        ) == TABLE4[component]

    def test_flip_target_bit_hits_target_bits(self, component):
        module = build_module(component)
        bits = module.target_bits()
        assert len(bits) == TABLE4[component][1]
        for index, location in enumerate(bits):
            assert module.flip_target_bit(index) == location
        # every target flip-flop flipped exactly once from reset
        for reg in module.registers().values():
            values = reg.values if isinstance(reg, RegisterArray) else [reg.value]
            if reg.ff_class is FlipFlopClass.TARGET:
                assert values == [reg.reset_value ^ reg.mask] * len(values)
            else:
                assert values == [reg.reset_value] * len(values)
        assert module.flip_target_bit(-1) == bits[-1]
        for index in (len(bits), -len(bits) - 1):
            with pytest.raises(IndexError):
                module.flip_target_bit(index)
