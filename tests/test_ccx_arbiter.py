"""The CCX's scan-free arbiter against its exact path.

While every non-empty FIFO has a valid head, ``CcxRtl._arbitrate``
routes each head once and grants each free destination the first
source routed to it in round-robin order; the first head found with its
valid bit cleared hands the rest of the tick to ``_arbitrate_exact``,
the destination-by-destination scan that consumes lost heads.  A
seeded random differential drives both with mixed FIFO fill, route
mixes, backed-up output stages, cleared head valid bits, control
register flips and FIFO overflow, and compares every register,
``protocol_errors`` and ``dropped`` after each tick.
"""

from __future__ import annotations

import random

import pytest

from repro.soc.address import AddressMap
from repro.soc.packets import CpxPacket, CpxType, PcxPacket, PcxType
from repro.uncore.ccx import FIFO_DEPTH, PORTS, CcxRtl

AMAP = AddressMap(l2_banks=8, l2_sets=8, mcus=4)
SEEDS = range(120)
TICKS = 60


class ExactCcx(CcxRtl):
    """Every tick on the exact path."""

    def _arbitrate(self, ch, route_by_addr: bool) -> None:
        self._arbitrate_exact(ch, route_by_addr, 0)


class CountingCcx(CcxRtl):
    """The arbiter under test, counting hand-overs to the exact path
    (``first_dest`` 0: a lost head before any grant)."""

    def __init__(self, amap) -> None:
        super().__init__(amap)
        self.handovers: list[int] = []

    def _arbitrate_exact(self, ch, route_by_addr: bool, first_dest: int) -> None:
        self.handovers.append(first_dest)
        super()._arbitrate_exact(ch, route_by_addr, first_dest)


#: per-port control registers a scenario may flip, with their widths
_CONTROL_WIDTHS = {"count": 4, "head": 3, "out_valid": 1, "rr": 3}


def _state(ccx: CcxRtl) -> tuple:
    return ccx.snapshot(), ccx.protocol_errors, ccx.dropped


def _scenario(seed: int):
    """One seeded action list: packet pushes ``("pcx" | "cpx", src,
    dest)``, ``("head_valid", direction, port)`` valid-bit clears,
    ``("flip", register, entry, bit)`` and ``("tick", deliver)``."""
    rng = random.Random(seed)
    # route mix: every destination, or a few hot ones (heads contend)
    dests = list(range(PORTS)) if rng.random() < 0.5 else rng.sample(range(PORTS), 2)
    push_rate = rng.choice((0.5, 2.0, 6.0))  # mean pushes per tick
    deliver_rate = rng.choice((0.2, 0.6, 1.0))  # < 1 backs up output stages
    flip_rate = rng.choice((0.0, 0.05, 0.2))
    actions = []
    for _ in range(TICKS):
        for _ in range(int(rng.expovariate(1 / push_rate))):
            src = rng.randrange(PORTS)
            dest = rng.choice(dests)
            actions.append((rng.choice(("pcx", "cpx")), src, dest))
        if rng.random() < flip_rate:
            direction = rng.choice(("pcx", "cpx"))
            reg = rng.choices(sorted(_CONTROL_WIDTHS) + ["fifo_valid"],
                              weights=(1, 1, 1, 1, 6))[0]
            if reg == "fifo_valid":
                actions.append(("head_valid", direction, rng.randrange(PORTS)))
            else:
                actions.append(("flip", f"{direction}_{reg}", rng.randrange(PORTS),
                                rng.randrange(_CONTROL_WIDTHS[reg])))
        actions.append(("tick", rng.random() < deliver_rate))
    return actions


def _pcx_for_bank(rng: random.Random, core: int, bank: int) -> PcxPacket:
    """A load whose address routes to L2 bank ``bank``."""
    while True:
        addr = rng.randrange(1 << 20) & ~7
        if AMAP.bank_of(addr) == bank:
            return PcxPacket(PcxType.LOAD, core, rng.randrange(4), addr, 0,
                             rng.randrange(1 << 16))


def _run(seed: int, fast: CountingCcx, exact: ExactCcx) -> None:
    rng = random.Random(seed * 7919 + 1)
    cycle = 0
    for action in _scenario(seed):
        kind = action[0]
        if kind == "pcx":
            _, src, bank = action
            pkt = _pcx_for_bank(rng, src, bank)
            for m in (fast, exact):
                m.send_pcx(bank, pkt, cycle)
        elif kind == "cpx":
            _, src, core = action
            pkt = CpxPacket(CpxType.LOAD_RET, core, rng.randrange(4),
                            rng.randrange(1 << 20), rng.randrange(1 << 64),
                            rng.randrange(1 << 16))
            for m in (fast, exact):
                m.send_cpx(pkt, cycle, src)
        elif kind == "head_valid":
            # clear the valid bit of a FIFO head (or of the slot it
            # would use next): the head is lost, the exact path takes over
            _, direction, port = action
            head = fast.registers()[f"{direction}_head"].values[port]
            slot = port * FIFO_DEPTH + (head + rng.randrange(2)) % FIFO_DEPTH
            name = f"{direction}_fifo_valid"
            if fast.registers()[name].values[slot]:
                for m in (fast, exact):
                    m.flip_bit(name, slot, 0)
        elif kind == "flip":
            _, name, entry, bit = action
            for m in (fast, exact):
                m.flip_bit(name, entry, bit)
        else:
            fast.tick(cycle)
            exact.tick(cycle)
            assert _state(fast) == _state(exact), (seed, cycle)
            if action[1]:
                assert fast.deliver_pcx(cycle) == exact.deliver_pcx(cycle)
                assert fast.deliver_cpx(cycle) == exact.deliver_cpx(cycle)
            cycle += 1


def test_fast_arbiter_equals_exact_path():
    handovers: list[int] = []
    dropped = lost = 0
    for seed in SEEDS:
        fast, exact = CountingCcx(AMAP), ExactCcx(AMAP)
        _run(seed, fast, exact)
        handovers += fast.handovers
        dropped += fast.dropped
        lost += fast.protocol_errors
    # the scenarios reach every path: hand-overs before any grant and
    # after one, lost heads consumed, and FIFO overflow
    assert 0 in handovers
    assert any(dest > 0 for dest in handovers)
    assert lost and dropped


@pytest.mark.parametrize("route_by_addr", [True, False])
def test_all_stages_occupied_is_a_no_op(route_by_addr):
    """With every output stage occupied nothing moves, and a lost head
    is not consumed (no destination looks at it)."""
    ccx = CcxRtl(AMAP)
    ch = ccx._pcx_ch if route_by_addr else ccx._cpx_ch
    for port in range(PORTS):
        pkt = PcxPacket(PcxType.LOAD, port, 0, 64 * port, 0, port)
        ccx.send_pcx(0, pkt, 0)
        ccx.send_cpx(CpxPacket(CpxType.LOAD_RET, port, 0, 0, 0, port), 0, port)
    ch.out_valid.values[:] = [1] * PORTS
    ch.fifo_valid.values[0] = 0  # port 0's head is lost
    before = _state(ccx)
    ccx._arbitrate(ch, route_by_addr)
    assert _state(ccx) == before
