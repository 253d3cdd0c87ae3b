"""QRR-protected uncore servers.

These wrap an RTL component with the QRR controller: request/completion
monitors feeding the record table, parity-based error detection, and the
gate -> reset -> replay -> resume recovery sequence of Sec. 6.2.  They
implement the machine's server interface, so a campaign can swap them in
exactly like a co-simulation adapter.
"""

from __future__ import annotations

from collections import deque

from repro.qrr.coverage import is_parity_covered
from repro.qrr.record import RecordTable
from repro.soc.packets import (
    CpxPacket,
    CpxType,
    McuOp,
    McuReply,
    McuRequest,
    PcxPacket,
)
from repro.uncore.l2c import L2cRtl
from repro.uncore.mcu import McuRtl


class QrrL2cServer:
    """An L2C bank protected by logic parity + QRR."""

    def __init__(self, machine, bank: int) -> None:
        self.machine = machine
        self.bank = bank
        self.rtl = L2cRtl(
            bank, machine.amap, machine.config.l2_ways, send_mcu=machine._send_mcu
        )
        self.rtl.load_state(machine.l2states[bank])
        self.record = RecordTable()
        #: replay queue during recovery (entries in original total order)
        self._replay: deque = deque()
        #: store-miss reqids whose duplicate replayed ack must be filtered
        self._suppress_ack: set[int] = set()
        #: saved replies to re-emit (completed ops whose reply was wiped)
        self._resend: deque = deque()
        #: invalidations pending at reset time, re-emitted after recovery
        self._resend_invs: deque = deque()
        self.recovering = False
        self.detected_flips = 0
        self.undetected_flips = 0
        self.recoveries = 0
        self.recovery_started_at = 0
        self.recovery_cycles_log: list[int] = []

    # ------------------------------------------------------------------
    # Error injection + parity detection
    # ------------------------------------------------------------------
    def inject(self, bit_index: int, cycle: int) -> tuple[str, int, int, bool]:
        """Flip a target bit; returns (reg, entry, bit, detected).

        Parity-covered flips are detected immediately and the component
        is gated the same cycle (the paper's Sec. 6.2 per-signal routing
        fix prevents corrupt outputs escaping in the detection window).
        """
        loc = self.rtl.flip_target_bit(bit_index)
        covered = is_parity_covered(self.rtl, loc[0])
        if covered:
            self.detected_flips += 1
            self._begin_recovery(cycle)
        else:
            self.undetected_flips += 1
        return (*loc, covered)

    def _begin_recovery(self, cycle: int) -> None:
        """Gate writes/outputs; capture undelivered work; reset; arm replay."""
        rtl = self.rtl
        rtl.write_disable = True
        self.recovering = True
        self.recoveries += 1
        self.recovery_started_at = cycle
        # capture pending invalidations (directory updates already applied
        # to the preserved SRAMs; the in-flight INV packets must still go out)
        self._resend_invs.clear()
        for i in range(len(rtl.invq_valid.values)):
            if rtl.invq_valid.read(i):
                self._resend_invs.append(
                    CpxPacket(
                        CpxType.INVALIDATE,
                        rtl.invq_core.read(i),
                        0,
                        rtl.invq_addr.read(i),
                        0,
                        0,
                    )
                )
        # capture CPX packets wiped from the output queue: the record
        # table's saved replies cover them (resent below); INVs in the OQ
        # are captured directly
        head = rtl.oq_head.value % 16
        for k in range(rtl.oq_count.value):
            idx = (head + k) % 16
            if rtl._entry_valid("oq", idx):
                if rtl._registers["oq_ptype"].read(idx) == int(CpxType.INVALIDATE):
                    self._resend_invs.append(
                        CpxPacket(
                            CpxType.INVALIDATE,
                            rtl._registers["oq_core"].read(idx),
                            0,
                            rtl._registers["oq_addr"].read(idx),
                            0,
                            0,
                        )
                    )
        # reset the flip-flops (config + ECC-protected buffers preserved)
        rtl.reset_flip_flops(preserve_config=True, preserve_protected=True)
        rtl.write_disable = False
        # build the replay sequence from the record table
        self._replay.clear()
        self._resend.clear()
        self._suppress_ack.clear()
        for entry in self.record.incomplete_in_order():
            if entry.executed and not entry.reply_delivered:
                # effect applied, reply wiped: resend the saved reply
                # (never re-execute a completed atomic)
                if entry.saved_reply is not None:
                    self._resend.append(entry.saved_reply)
                elif entry.is_store:
                    # store-miss completed but its early ack was wiped
                    self._resend.append(
                        CpxPacket(
                            CpxType.STORE_ACK,
                            entry.pkt.core,
                            entry.pkt.thread,
                            entry.pkt.addr,
                            0,
                            entry.pkt.reqid,
                        )
                    )
            elif not entry.executed:
                if entry.is_store and entry.ack_delivered:
                    self._suppress_ack.add(entry.pkt.reqid)
                self._replay.append(entry.pkt)
        self.record.clear()

    # ------------------------------------------------------------------
    # Machine server interface
    # ------------------------------------------------------------------
    def accept(self, pkt: PcxPacket, cycle: int) -> bool:
        if self.recovering or self.record.full:
            return False
        if not self.rtl.accept(pkt, cycle):
            return False
        self.record.record(pkt)
        return True

    def deliver_mcu_reply(self, reply: McuReply) -> None:
        self.rtl.deliver_mcu_reply(reply)

    def dma_update(self, addr: int, value: int) -> None:
        self.rtl.dma_update(addr, value)

    def tick(self, cycle: int) -> list[CpxPacket]:
        out: list[CpxPacket] = []
        if self.recovering:
            # replay recorded packets in original order, as IQ space allows
            while self._replay:
                pkt = self._replay[0]
                if not self.rtl.accept(pkt, cycle):
                    break
                self.record.record(pkt)
                self._replay.popleft()
            if not self._replay:
                self.recovering = False
                self.recovery_cycles_log.append(cycle - self.recovery_started_at)
            # re-emit captured invalidations (bounded per cycle)
            for _ in range(2):
                if self._resend_invs:
                    out.append(self._resend_invs.popleft())
        # re-emit saved replies of completed ops (bounded per cycle)
        for _ in range(2):
            if self._resend:
                out.append(self._resend.popleft())
        produced = self.rtl.tick(cycle)
        # completion monitoring (Sec. 6.1)
        for reqid, reply in self.rtl.exec_log:
            self.record.mark_executed(reqid, reply)
        filtered: list[CpxPacket] = []
        for cpx in produced:
            if (
                cpx.ctype is CpxType.STORE_ACK
                and cpx.reqid in self._suppress_ack
            ):
                self._suppress_ack.discard(cpx.reqid)
                entry = self.record.get(cpx.reqid)
                if entry is not None:
                    entry.ack_delivered = True
                continue
            self.record.mark_delivered(cpx)
            filtered.append(cpx)
        return out + filtered

    def in_flight(self) -> int:
        return (
            self.rtl.in_flight()
            + len(self._replay)
            + len(self._resend)
            + len(self._resend_invs)
        )

    # ------------------------------------------------------------------
    def attach(self) -> None:
        self.hl = self.machine.swap("l2c", self.bank, self)

    def detach(self) -> None:
        self.rtl.extract_state(self.machine.l2states[self.bank])
        self.machine.swap("l2c", self.bank, self.hl)


class QrrMcuServer:
    """An MCU protected by logic parity + QRR.

    Reads are tracked in the record table and replayed (idempotent);
    writes survive recovery in the ECC-protected write-data buffer, from
    which the controller re-issues them before any replayed read (the
    paper covers MCU requests through the L2C record tables -- footnote
    12; a controller-local table is behaviourally equivalent and keeps
    the recovery domain self-contained).
    """

    def __init__(self, machine, mcu_idx: int) -> None:
        self.machine = machine
        self.mcu_idx = mcu_idx
        self.rtl = McuRtl(mcu_idx, machine.dram)
        #: read requests not yet answered, in arrival order
        self._reads: deque[McuRequest] = deque()
        self._replay: deque[McuRequest] = deque()
        self.recovering = False
        self.detected_flips = 0
        self.undetected_flips = 0
        self.recoveries = 0
        self.recovery_started_at = 0
        self.recovery_cycles_log: list[int] = []

    def inject(self, bit_index: int, cycle: int) -> tuple[str, int, int, bool]:
        loc = self.rtl.flip_target_bit(bit_index)
        covered = is_parity_covered(self.rtl, loc[0])
        if covered:
            self.detected_flips += 1
            self._begin_recovery(cycle)
        else:
            self.undetected_flips += 1
        return (*loc, covered)

    def _begin_recovery(self, cycle: int) -> None:
        rtl = self.rtl
        rtl.write_disable = True
        self.recovering = True
        self.recoveries += 1
        self.recovery_started_at = cycle
        rtl.reset_flip_flops(preserve_config=True, preserve_protected=True)
        rtl.write_disable = False
        # writes survive in the preserved WDB: re-bind them to RQ entries
        self._replay.clear()
        wdb_rebuild: list[McuRequest] = []
        for slot in range(len(rtl.wdb_valid.values)):
            if rtl.wdb_valid.read(slot):
                data_int = rtl.wdb_data.read(slot)
                words = tuple(
                    (data_int >> (64 * w)) & ((1 << 64) - 1) for w in range(8)
                )
                wdb_rebuild.append(
                    McuRequest(
                        McuOp.WRITE, rtl.wdb_addr.read(slot), words, 0, 0
                    )
                )
                # the slot is re-allocated when the rebuilt write is
                # re-accepted below
                rtl.wdb_valid.write(slot, 0)
        for req in wdb_rebuild:
            self._replay.append(req)
        for req in self._reads:
            self._replay.append(req)
        self._reads.clear()

    def accept(self, req: McuRequest, cycle: int) -> bool:
        if self.recovering:
            return False
        if not self.rtl.accept(req, cycle):
            return False
        if req.op is McuOp.READ:
            self._reads.append(req)
        return True

    def tick(self, cycle: int) -> None:
        if self.recovering:
            while self._replay:
                if not self.rtl.accept(self._replay[0], cycle):
                    break
                req = self._replay.popleft()
                if req.op is McuOp.READ:
                    self._reads.append(req)
            if not self._replay:
                self.recovering = False
                self.recovery_cycles_log.append(cycle - self.recovery_started_at)
        replies = self.rtl.tick(cycle)
        for reply in replies:
            # completion monitor: the read has been answered
            self._reads = deque(
                r for r in self._reads
                if not (r.tag == reply.tag and r.line_addr == reply.line_addr)
            )
            self.machine._route_mcu_reply(reply)

    def in_flight(self) -> int:
        return self.rtl.in_flight() + len(self._replay)

    def attach(self) -> None:
        self.hl = self.machine.swap("mcu", self.mcu_idx, self)

    def detach(self) -> None:
        self.machine.swap("mcu", self.mcu_idx, self.hl)
