"""Flip-flop-level RTL model of the crossbar interconnect (CCX).

The CCX moves PCX packets from eight core ports to eight L2-bank ports
and CPX packets back.  Per direction it has one 8-entry input FIFO per
source port, a round-robin arbiter per destination port, and an output
staging register per destination -- one packet per destination per cycle.

Routing is *computed from the latched address field* (PCX) or core field
(CPX), so a flipped address bit misroutes the packet to the wrong bank --
the request reaches a bank that does not serve that address range and is
answered with data for the aliased line, or the reply reaches the wrong
core and is dropped there.  Both reproduce real crossbar failure modes.

The crossbar has no high-level uncore state (Table 1 footnote: its state
is reconstructed in co-simulation mode) and no ECC-protected
flip-flops; the inventory pads to ``T2_GEOMETRY["ccx"]`` (Table 4).
"""

from __future__ import annotations

from repro.rtl.compare import Mismatch, MismatchKind
from repro.rtl.module import RtlModule
from repro.rtl.registers import FlipFlopClass
from repro.soc.geometry import T2_GEOMETRY
from repro.soc.address import AddressMap
from repro.soc.packets import CpxPacket, PcxPacket

PORTS = 8
FIFO_DEPTH = 8

_FIELDS = dict(valid=1, ptype=3, core=3, thread=3, addr=40, data=64, reqid=16)
#: the packet payload fields, in ``pack_fields`` order
_PAYLOAD = ("ptype", "core", "thread", "addr", "data", "reqid")

#: arbitration memo sentinels: head not read yet this tick / head lost
_UNREAD = object()
_LOST = object()


class _Channel:
    """One direction's register handles, bound once at construction so
    the arbitration hot path builds no names and does no dict lookups.

    Holds the :class:`RegisterArray` objects, never their ``values``
    lists: ``restore``/``reset`` replace those lists."""

    __slots__ = ("fifo_valid", "fifo", "head", "tail", "count", "out_valid",
                 "out", "rr")

    def __init__(self, regs, direction: str) -> None:
        self.fifo_valid = regs[f"{direction}_fifo_valid"]
        self.fifo = tuple(regs[f"{direction}_fifo_{f}"] for f in _PAYLOAD)
        self.head = regs[f"{direction}_head"]
        self.tail = regs[f"{direction}_tail"]
        self.count = regs[f"{direction}_count"]
        self.out_valid = regs[f"{direction}_out_valid"]
        self.out = tuple(regs[f"{direction}_out_{f}"] for f in _PAYLOAD)
        self.rr = regs[f"{direction}_rr"]


class CcxRtl(RtlModule):
    """RTL model of the crossbar (single instance on the chip)."""

    spec = T2_GEOMETRY["ccx"]

    def __init__(self, amap: AddressMap) -> None:
        super().__init__("ccx")
        self.amap = amap
        for direction in ("pcx", "cpx"):
            for field, width in _FIELDS.items():
                self.reg_array(f"{direction}_fifo_{field}", PORTS * FIFO_DEPTH, width)
            self.reg_array(f"{direction}_head", PORTS, 3)
            self.reg_array(f"{direction}_tail", PORTS, 3)
            self.reg_array(f"{direction}_count", PORTS, 4)
            for field, width in _FIELDS.items():
                self.reg_array(f"{direction}_out_{field}", PORTS, width)
            self.reg_array(f"{direction}_rr", PORTS, 3)
        self.perf_pcx = self.reg("perf_pcx", 64, functional=False)
        self.perf_cpx = self.reg("perf_cpx", 64, functional=False)
        # inactive BIST chain (Table 4)
        self.reg_array("bist_scan_chain", 340, 1, ff_class=FlipFlopClass.INACTIVE)
        # steering configuration shadow / debug capture registers
        self.pad(FlipFlopClass.TARGET, "steer_debug", width=67)
        self.check_totals()

        self._pcx_ch = _Channel(self._registers, "pcx")
        self._cpx_ch = _Channel(self._registers, "cpx")
        self.protocol_errors = 0
        self.write_disable = False
        #: packets that overflowed an input FIFO (dropped)
        self.dropped = 0

    # ------------------------------------------------------------------
    # FIFO helpers
    # ------------------------------------------------------------------
    def _push(self, ch: _Channel, port: int, fields: tuple) -> bool:
        counts = ch.count.values
        count = counts[port]
        if count >= FIFO_DEPTH:
            self.dropped += 1
            return False
        tail = ch.tail.values[port] % FIFO_DEPTH
        slot = port * FIFO_DEPTH + tail
        ch.fifo_valid.values[slot] = 1
        # pack_fields() masks each field to its register's width
        for reg, value in zip(ch.fifo, fields):
            reg.values[slot] = value
        ch.tail.values[port] = (tail + 1) % FIFO_DEPTH
        counts[port] = count + 1
        return True

    def _head_fields(self, ch: _Channel, port: int):
        """The head packet's payload fields of ``port``'s FIFO, None when
        it is empty, or ``_LOST`` when the head's valid bit was flipped
        away -- that slot is consumed and counted as a protocol error."""
        if ch.count.values[port] == 0:
            return None
        slot = port * FIFO_DEPTH + ch.head.values[port] % FIFO_DEPTH
        if not ch.fifo_valid.values[slot]:
            self._pop(ch, port)
            self.protocol_errors += 1
            return _LOST
        ptype, core, thread, addr, data, reqid = ch.fifo
        return (
            ptype.values[slot],
            core.values[slot],
            thread.values[slot],
            addr.values[slot],
            data.values[slot],
            reqid.values[slot],
        )

    def _pop(self, ch: _Channel, port: int) -> None:
        head = ch.head.values[port] % FIFO_DEPTH
        ch.fifo_valid.values[port * FIFO_DEPTH + head] = 0
        ch.head.values[port] = (head + 1) % FIFO_DEPTH
        counts = ch.count.values
        counts[port] = max(0, counts[port] - 1)

    # ------------------------------------------------------------------
    # Machine-facing interface (same shape as HighLevelCcx)
    # ------------------------------------------------------------------
    def send_pcx(self, bank: int, pkt: PcxPacket, cycle: int) -> None:
        """Core-side ingress; the source port is the issuing core."""
        self._push(self._pcx_ch, pkt.core & 7, pkt.pack_fields())

    def send_cpx(self, pkt: CpxPacket, cycle: int, src: int = 0) -> None:
        """Bank-side ingress; the source port is the sending L2 bank."""
        self._push(self._cpx_ch, src & 7, pkt.pack_fields())

    def tick(self, cycle: int) -> None:
        """Arbitrate: move one FIFO head per free destination port."""
        if self.write_disable:
            return
        self._arbitrate(self._pcx_ch, True)
        self._arbitrate(self._cpx_ch, False)

    def _arbitrate(self, ch: _Channel, route_by_addr: bool) -> None:
        """One direction's round-robin arbiters.  PCX routes by the
        latched address (its bank), CPX by the latched core field.

        While every non-empty FIFO has a valid head this needs no scan:
        each head is read once and routed, each free destination takes
        the first source routed to it in its round-robin order, and a
        pop reads only that source's next head.  The first head found
        with its valid bit cleared hands the rest of the tick to
        :meth:`_arbitrate_exact`, the only path that consumes lost heads.
        """
        counts = ch.count.values
        if not any(counts):
            return  # every FIFO is empty
        out_valid = ch.out_valid.values
        if all(out_valid):
            return  # every output stage is occupied: nothing can move
        fifo_valid = ch.fifo_valid.values
        head = ch.head.values
        key = (ch.fifo[3] if route_by_addr else ch.fifo[1]).values
        bank_of = self.amap.bank_of
        routes = [-1] * PORTS  # per source: its head's destination
        for src in range(PORTS):
            if counts[src]:
                slot = src * FIFO_DEPTH + head[src] % FIFO_DEPTH
                if not fifo_valid[slot]:
                    self._arbitrate_exact(ch, route_by_addr, 0)
                    return
                routes[src] = (bank_of(key[slot]) if route_by_addr else key[slot]) & 7
        rr = ch.rr.values
        for dest in range(PORTS):
            if out_valid[dest] or dest not in routes:
                continue
            try:
                src = routes.index(dest, rr[dest])
            except ValueError:  # wrap around to the low sources
                src = routes.index(dest)
            slot = src * FIFO_DEPTH + head[src] % FIFO_DEPTH
            out_valid[dest] = 1
            for out_reg, fifo_reg in zip(ch.out, ch.fifo):
                out_reg.values[dest] = fifo_reg.values[slot]
            self._pop(ch, src)
            rr[dest] = (src + 1) % PORTS
            if not counts[src]:
                routes[src] = -1
                continue
            slot = src * FIFO_DEPTH + head[src] % FIFO_DEPTH
            if not fifo_valid[slot]:
                self._arbitrate_exact(ch, route_by_addr, dest + 1)
                return
            routes[src] = (bank_of(key[slot]) if route_by_addr else key[slot]) & 7

    def _arbitrate_exact(
        self, ch: _Channel, route_by_addr: bool, first_dest: int
    ) -> None:
        """Arbitrate destinations ``first_dest`` onwards, destination by
        destination, scanning sources in round-robin order.

        A source's head is read once per call and reused by later
        destinations until that source pops.  A lost head is never
        reused: every look at it consumes one slot and counts one
        protocol error, exactly as a re-read would.
        """
        out_valid = ch.out_valid.values
        rr = ch.rr.values
        bank_of = self.amap.bank_of
        heads = [_UNREAD] * PORTS
        for dest in range(first_dest, PORTS):
            if out_valid[dest]:
                continue  # stage still occupied (not yet delivered)
            start = rr[dest]
            for offset in range(PORTS):
                src = (start + offset) % PORTS
                head = heads[src]
                if head is _UNREAD:
                    fields = self._head_fields(ch, src)
                    if fields is _LOST:
                        continue
                    if fields is not None:
                        route = bank_of(fields[3]) if route_by_addr else fields[1]
                        head = (fields, route & 7)
                    else:
                        head = None
                    heads[src] = head
                if head is None or head[1] != dest:
                    continue
                out_valid[dest] = 1
                for reg, value in zip(ch.out, head[0]):
                    reg.values[dest] = value
                self._pop(ch, src)
                heads[src] = _UNREAD
                rr[dest] = (src + 1) % PORTS
                break

    def deliver_pcx(self, cycle: int) -> list[tuple[int, PcxPacket]]:
        """Drain the bank-side output stages: (bank, packet)."""
        out_valid = self._pcx_ch.out_valid.values
        out = []
        if not any(out_valid):
            return out
        ptype, core, thread, addr, data, reqid = self._pcx_ch.out
        for dest in range(PORTS):
            if out_valid[dest]:
                pkt = PcxPacket.unpack_fields(
                    ptype.values[dest],
                    core.values[dest],
                    thread.values[dest],
                    addr.values[dest],
                    data.values[dest],
                    reqid.values[dest],
                )
                out.append((dest, pkt))
                out_valid[dest] = 0
                self.perf_pcx.write(self.perf_pcx.value + 1)
        return out

    def deliver_cpx(self, cycle: int) -> list[CpxPacket]:
        """Drain the core-side output stages."""
        out_valid = self._cpx_ch.out_valid.values
        out = []
        if not any(out_valid):
            return out
        ptype, core, thread, addr, data, reqid = self._cpx_ch.out
        for dest in range(PORTS):
            if out_valid[dest]:
                out.append(
                    CpxPacket.unpack_fields(
                        ptype.values[dest],
                        core.values[dest],
                        thread.values[dest],
                        addr.values[dest],
                        data.values[dest],
                        reqid.values[dest],
                    )
                )
                out_valid[dest] = 0
                self.perf_cpx.write(self.perf_cpx.value + 1)
        return out

    def in_flight(self) -> int:
        count = 0
        for ch in (self._pcx_ch, self._cpx_ch):
            count += sum(ch.count.values) + sum(ch.out_valid.values)
        return count

    def idle(self) -> bool:
        for ch in (self._pcx_ch, self._cpx_ch):
            if any(ch.count.values) or any(ch.out_valid.values):
                return False
        return True

    # ------------------------------------------------------------------
    # Mismatch benignity
    # ------------------------------------------------------------------
    def is_mismatch_benign(self, mismatch: Mismatch) -> bool:
        if super().is_mismatch_benign(mismatch):
            return True
        if mismatch.kind is not MismatchKind.FLIP_FLOP:
            return False
        name = mismatch.name
        regs = self._registers
        for direction in ("pcx", "cpx"):
            if name.startswith(f"{direction}_fifo_") and not name.endswith("_valid"):
                return not regs[f"{direction}_fifo_valid"].read(mismatch.entry)
            if name.startswith(f"{direction}_out_") and not name.endswith("_valid"):
                return not regs[f"{direction}_out_valid"].read(mismatch.entry)
        return False
