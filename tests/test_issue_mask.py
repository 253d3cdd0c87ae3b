"""O(1) round-robin issue and due-only uncore selection.

A core keeps ``_issuable``, a bitmask of the threads ``step()`` may
dispatch, and picks from a table shared by every core of its thread
count.  These tests hold the pick to the round-robin scan it replaced
(copied below as the reference), the mask to what ``_recount`` rebuilds
from the thread states after any mix of steps and CPX deliveries, and
the event engine's due-only bank and MCU loops to the invariant they
rest on.
"""

from __future__ import annotations

import itertools
import random

import pytest

from repro.api import ExperimentSpec, Session
from repro.core.cpu import Core, ThreadState, Trap, TrapKind, _PickRow
from repro.core.program import ProgramBuilder
from repro.mixedmode import adapters
from repro.qrr import servers
from repro.soc.packets import CpxPacket, CpxType, PcxType
from repro.system.machine import Machine, MachineConfig
from repro.uncore.highlevel.l2c import HighLevelL2Bank
from repro.uncore.highlevel.mcu import HighLevelMcu

READY = ThreadState.READY
RETRY = ThreadState.RETRY
WAIT = ThreadState.WAIT_MEM

#: the thread conditions the pick distinguishes, and whether each may issue
KINDS = {
    "ready": True,
    "retry": True,
    "wait": False,
    "atomic_drained": True,
    "atomic_undrained": False,
    "halted": False,
    "trapped": False,
}


def reference_step(core: Core, cycle: int) -> bool:
    """The round-robin scan ``Core.step`` used before the issuable mask:
    from the head, the first thread that is READY or RETRY, or WAIT_MEM
    on a pending atomic whose stores have drained."""
    threads = core.threads
    n = len(threads)
    idx = core._rr
    for _scan in range(n):
        if idx >= n:
            idx -= n
        thread = threads[idx]
        state = thread.state
        if state is READY or state is RETRY:
            pass
        elif state is WAIT and (
            thread.pending_atomic and thread.stores_inflight == 0
        ):
            thread.state = RETRY
        else:
            idx += 1
            continue
        idx += 1
        core._rr = 0 if idx == n else idx
        core.dirty = True
        pc = thread.pc
        if not 0 <= pc < thread.program_len:
            return core._trap(thread, TrapKind.BAD_PC)
        thread.state = READY
        return thread.handlers[pc](core, thread, cycle)
    return False


def make_core(issued: list, accept=lambda: True) -> Core:
    reqids = itertools.count(1)
    return Core(
        0,
        l1_words=64,
        issue_pcx=lambda pkt: (issued.append(pkt), accept())[1],
        check_addr=lambda addr: True,
        write_output=lambda slot, value: None,
        alloc_reqid=lambda: next(reqids),
    )


def atomic_program():
    """``faa`` at pc 0 (what a pending atomic re-issues), then halt."""
    b = ProgramBuilder("t")
    b.faa(1, 0, 0)
    b.halt()
    return b.build()


def put(thread, kind: str) -> None:
    """Put a thread (at pc 0, nothing in flight) into a condition."""
    if kind == "ready":
        thread.state = READY
    elif kind == "retry":
        thread.state = RETRY
    elif kind == "wait":
        thread.state = WAIT
        thread.wait_reqid = 99
    elif kind == "atomic_drained":
        thread.state = WAIT
        thread.pending_atomic = True
    elif kind == "atomic_undrained":
        thread.state = WAIT
        thread.pending_atomic = True
        thread.stores_inflight = 2
    elif kind == "halted":
        thread.state = ThreadState.HALTED
    else:
        thread.state = ThreadState.TRAPPED
        thread.trap = Trap(TrapKind.ILLEGAL, 0, thread.thread_idx, 0)


def build(kinds, rr: int):
    issued: list = []
    core = make_core(issued)
    for kind in kinds:
        put(core.add_thread(atomic_program()), kind)
    core._rr = rr
    core._recount()
    return core, issued


def observe(core: Core, issued: list) -> tuple:
    return (
        core._rr,
        [t.snapshot() for t in core.threads],
        [(p.ptype, p.thread, p.addr, p.data, p.reqid) for p in issued],
    )


def cases():
    """Every mix of the seven conditions for up to 4 threads per core;
    for 5 to 8 threads every issuable/not pattern, each thread's
    condition drawn from its class (seeded)."""
    for n in range(1, 5):
        yield from itertools.product(KINDS, repeat=n)
    rng = random.Random(2015)
    can = [k for k, ok in KINDS.items() if ok]
    cannot = [k for k, ok in KINDS.items() if not ok]
    for n in range(5, 9):
        for mask in range(1 << n):
            yield tuple(
                rng.choice(can if mask >> i & 1 else cannot) for i in range(n)
            )


class TestPick:
    def test_pick_matches_round_robin_scan(self):
        checked = 0
        for kinds in cases():
            expect_mask = sum(1 << i for i, k in enumerate(kinds) if KINDS[k])
            for rr in range(len(kinds)):
                core, issued = build(kinds, rr)
                assert core._issuable == expect_mask, kinds
                ref, ref_issued = build(kinds, rr)
                got = core.step(7)
                want = reference_step(ref, 7)
                assert got == want, (kinds, rr)
                assert observe(core, issued) == observe(ref, ref_issued), (
                    kinds,
                    rr,
                )
                mask = core._issuable
                ref._recount()
                assert mask == ref._issuable, (kinds, rr)
                checked += 1
        # 10,738 exhaustive mixes x heads for 1-4 threads, 3,488 for 5-8
        assert checked == 14_226

    def test_pick_tables_shared_by_thread_count(self):
        issued: list = []
        a, b = make_core(issued), make_core(issued)
        for _ in range(4):
            a.add_thread(atomic_program())
            b.add_thread(atomic_program())
        assert a._pick is b._pick
        assert len(a._pick) == 4

    def test_pick_rows_fill_on_first_use(self):
        """A row holds only the masks it has met, and a filled entry is
        the one the round-robin scan gives."""
        picks = [(0, 1), (1, 2), (2, 0)]
        row = _PickRow(1, picks)
        assert row[0b101] == (2, 0)
        assert row[0b001] == (0, 1)
        assert row[0b110] == (1, 2)
        assert set(row) == {0b101, 0b001, 0b110}

    def test_more_threads_than_the_t2(self):
        """Past the T2's 8 threads the pick is the same."""
        rng = random.Random(7)
        kinds = list(KINDS)
        for _ in range(300):
            picked = tuple(rng.choice(kinds) for _ in range(11))
            rr = rng.randrange(11)
            core, issued = build(picked, rr)
            ref, ref_issued = build(picked, rr)
            assert core.step(3) == reference_step(ref, 3)
            assert observe(core, issued) == observe(ref, ref_issued)


def random_program(rng: random.Random, length: int):
    """Loads, stores and atomics into a 4-line region (so the L1 holds
    lines an INVALIDATE can hit), ALU filler, and sometimes no final
    halt (the thread then traps with BAD_PC)."""
    b = ProgramBuilder("t")
    b.ldi(1, 0x1000)
    for _ in range(length):
        op = rng.random()
        off = 8 * rng.randrange(32)
        if op < 0.3:
            b.st(2, 1, off)
        elif op < 0.55:
            b.ld(2, 1, off)
        elif op < 0.7:
            b.ldi(3, 0x1000 + off)
            if rng.random() < 0.5:
                b.faa(2, 3, 2)
            else:
                b.tas(2, 3)
        else:
            b.addi(2, 2, 1)
    if rng.random() < 0.8:
        b.halt()
    return b.build()


def deliver_one(core: Core, pending: list, rng: random.Random):
    """A random return packet: the answer to an in-flight request, a
    store ack, an invalidate, or one that matches no waiting thread."""
    roll = rng.random()
    if roll < 0.6 and pending:
        pkt = pending.pop(rng.randrange(len(pending)))
        if pkt.ptype is PcxType.STORE:
            ctype = CpxType.STORE_ACK
        elif pkt.ptype is PcxType.LOAD:
            ctype = CpxType.LOAD_RET
        else:
            ctype = CpxType.ATOMIC_RET
        data = rng.randrange(1 << 16)
        return CpxPacket(ctype, 0, pkt.thread, pkt.addr, data, pkt.reqid)
    if roll < 0.75:
        line = 0x1000 + 64 * rng.randrange(4)
        return CpxPacket(CpxType.INVALIDATE, 0, 0, line, 0, 0)
    if roll < 0.9:
        # unmatched: a stale reqid, or a thread the core does not have
        ctype = rng.choice((CpxType.LOAD_RET, CpxType.ATOMIC_RET, CpxType.STORE_ACK))
        thread = rng.choice((rng.randrange(len(core.threads)), len(core.threads), -1))
        return CpxPacket(ctype, 0, thread, 0x1000, 5, 0xFFFF)
    return None


class TestMaskTracksStates:
    @pytest.mark.parametrize("seed", range(12))
    def test_random_steps_and_deliveries(self, seed):
        rng = random.Random(seed)
        issued: list = []
        core = make_core(issued, accept=lambda: rng.random() < 0.85)
        n = rng.randint(1, 8)
        for _ in range(n):
            core.add_thread(random_program(rng, rng.randint(4, 40)))
        pending: list = []  # issued requests not yet answered
        for cycle in range(600):
            if rng.random() < 0.6:
                core.step(cycle)
                while issued:
                    pkt = issued.pop()
                    pending.append(pkt)
            for _ in range(rng.randint(0, 2)):
                pkt = deliver_one(core, pending, rng)
                if pkt is not None:
                    core.deliver_cpx(pkt)
            mask = core._issuable
            core._recount()
            assert mask == core._issuable, (seed, cycle)

    def test_drained_atomic_becomes_issuable_on_last_ack(self):
        issued: list = []
        core = make_core(issued)
        b = ProgramBuilder("t")
        b.ldi(1, 0x100)
        b.st(1, 1, 0)
        b.st(1, 1, 8)
        b.faa(2, 1, 1)
        b.halt()
        t = core.add_thread(b.build())
        for cycle in range(4):
            core.step(cycle)
        assert t.state is WAIT and t.pending_atomic and core._issuable == 0
        acks = [p for p in issued if p.ptype is PcxType.STORE]
        core.deliver_cpx(CpxPacket(CpxType.STORE_ACK, 0, 0, 0x100, 0, acks[0].reqid))
        assert core._issuable == 0
        core.deliver_cpx(CpxPacket(CpxType.STORE_ACK, 0, 0, 0x108, 0, acks[1].reqid))
        assert core._issuable == t.bit
        assert core.step(5) and issued[-1].ptype is PcxType.ATOMIC_ADD
        assert core._issuable == 0 and not t.pending_atomic


# ----------------------------------------------------------------------
# due-only uncore selection
# ----------------------------------------------------------------------
SMALL = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=2, l2_ways=2)

#: the bank- and MCU-stage component types, and the wake list of each
STAGES = {
    HighLevelL2Bank: "_wake_banks",
    adapters.L2cCosimAdapter: "_wake_banks",
    servers.QrrL2cServer: "_wake_banks",
    HighLevelMcu: "_wake_mcus",
    adapters.McuCosimAdapter: "_wake_mcus",
    servers.QrrMcuServer: "_wake_mcus",
}


def test_tick_never_makes_a_same_stage_component_due(monkeypatch):
    """The invariant ``Machine._step_uncore``'s due-only loops rest on:
    ticking a bank (or MCU) never lowers another bank's (MCU's) wake to
    ``<= cycle``.  Checked on every bank and MCU tick of golden runs,
    injection runs (RTL adapters) and QRR runs."""
    current: list = [None]
    ticks = {cls: 0 for cls in STAGES}
    violations: list = []
    step_uncore = Machine._step_uncore

    def tracking_step_uncore(self, cycle):
        current[0] = self
        return step_uncore(self, cycle)

    def checked(cls, tick, wakes_name):
        def wrapper(self, cycle):
            machine = current[0]
            before = list(getattr(machine, wakes_name))
            out = tick(self, cycle)
            after = getattr(machine, wakes_name)
            ticks[cls] += 1
            for idx, (old, new) in enumerate(zip(before, after)):
                if old > cycle >= new:
                    violations.append((cls.__name__, cycle, idx, old, new))
            return out

        return wrapper

    monkeypatch.setattr(Machine, "_step_uncore", tracking_step_uncore)
    for cls, wakes_name in STAGES.items():
        monkeypatch.setattr(cls, "tick", checked(cls, cls.tick, wakes_name))
    for mode, component, bench in (
        ("injection", "l2c", "fft"),
        ("injection", "mcu", "p-wc"),
        ("qrr", "l2c", "fft"),
        ("qrr", "mcu", "radi"),
    ):
        spec = ExperimentSpec(
            benchmark=bench,
            component=component,
            mode=mode,
            machine=SMALL,
            scale=1 / 120_000,
            seed=2015,
            n=3,
        )
        Session().run(spec)
    assert violations == []
    assert ticks[HighLevelL2Bank] and ticks[HighLevelMcu]
    assert ticks[adapters.L2cCosimAdapter] and ticks[adapters.McuCosimAdapter]
    assert ticks[servers.QrrL2cServer] and ticks[servers.QrrMcuServer]
