"""Flip-flop-level RTL model of one L2 cache controller bank (L2C).

Microarchitecture (mirrors the OpenSPARC T2 L2 bank at reproduction
scale):

* a 16-entry input queue (IQ) latching incoming PCX packets,
* a 4-deep request pipeline (P1..P4) ending in tag lookup / execute,
* an 8-entry miss buffer (MB) tracking outstanding fills; a *store miss*
  acknowledges the core immediately and keeps post-processing in the MB
  after the return packet -- exactly the behaviour that defeats
  core-resident recovery and that QRR's completion monitor handles
  (paper Sec. 6.1),
* a 4-entry fill queue (FQ) for MCU data returns and a 4-entry
  writeback buffer (WBB) for dirty victims,
* a 16-entry output queue (OQ) toward the CPX crossbar,
* ECC-protected data-path staging (excluded from injection, Table 4),
* BIST/redundancy scan chains (inactive, Table 4).

The architected arrays (tag, state, data, L1 directory, victim pointers)
are SRAM -- part of the Table 1 high-level state and transferred to/from
:class:`repro.mem.l2state.L2BankState` at co-simulation entry/exit.

The register inventory pads to ``T2_GEOMETRY["l2c"]`` (Tables 3 and 4).
"""

from __future__ import annotations

from typing import Callable

from repro.mem.l2state import L2BankState
from repro.rtl.compare import Mismatch, MismatchKind
from repro.rtl.module import RtlModule
from repro.rtl.registers import FlipFlopClass
from repro.soc.geometry import T2_GEOMETRY
from repro.soc.address import AddressMap, WORDS_PER_LINE
from repro.soc.packets import (
    CpxPacket,
    CpxType,
    McuOp,
    McuReply,
    McuRequest,
    PcxPacket,
    PcxType,
)

IQ_ENTRIES = 16
MB_ENTRIES = 8
FQ_ENTRIES = 4
WBB_ENTRIES = 4
OQ_ENTRIES = 16
INVQ_ENTRIES = 16
#: packet field widths: valid + type + core + thread + addr + data + reqid
_PKT_BITS = dict(valid=1, ptype=3, core=3, thread=3, addr=40, data=64, reqid=16)

_LINE_MASK = (1 << 512) - 1
_WORD_MASK = (1 << 64) - 1


class L2cRtl(RtlModule):
    """RTL model of one L2C bank instance."""

    spec = T2_GEOMETRY["l2c"]

    def __init__(
        self,
        bank: int,
        amap: AddressMap,
        ways: int,
        send_mcu: "Callable[[McuRequest], None]",
    ) -> None:
        super().__init__(f"l2c{bank}")
        self.bank = bank
        self.amap = amap
        self.ways = ways
        self.sets = amap.l2_sets
        self.send_mcu = send_mcu
        nlines = self.sets * ways

        # ---- architected SRAM arrays (Table 1 high-level state) -------
        self.tag_sram = self.sram_array("tag_array", nlines, 40)
        self.state_sram = self.sram_array("state_array", nlines, 2)
        self.data_sram = self.sram_array("data_array", nlines, 512)
        self.dir_sram = self.sram_array("dir_array", nlines, 8)
        self.victim_sram = self.sram_array("victim_ptr", self.sets, 3)

        #: per queue prefix, its (valid, ptype, core, thread, addr, data,
        #: reqid) register arrays -- bound once, so the co-simulation hot
        #: path builds no names and does no dict lookups
        self._queues: dict[str, tuple] = {}

        # ---- input queue ----------------------------------------------
        self._iq = self._queue_fields("iq", IQ_ENTRIES)
        self.iq_head = self.reg("iq_head", 4)
        self.iq_tail = self.reg("iq_tail", 4)
        self.iq_count = self.reg("iq_count", 5)

        # ---- request pipeline P1..P4 ------------------------------------
        self._pipe = tuple(
            self._queue_fields(f"p{stage}", 1) for stage in range(1, 5)
        )

        # ---- miss buffer -------------------------------------------------
        self._mb = self._queue_fields("mb", MB_ENTRIES)
        self.mb_state = self.reg_array("mb_state", MB_ENTRIES, 2)

        # ---- fill queue / writeback buffer --------------------------------
        self.fq_valid = self.reg_array("fq_valid", FQ_ENTRIES, 1)
        self.fq_addr = self.reg_array("fq_addr", FQ_ENTRIES, 40)
        self.fq_data = self.reg_array("fq_data", FQ_ENTRIES, 512)
        # The writeback buffer holds the only copy of dirty victim data
        # while it drains to the MCU; it is ECC-protected (excluded from
        # injection per Table 4) and excluded from the QRR reset domain
        # (Sec. 6.2 preserves array contents; the WBB is array-adjacent).
        self.wbb_valid = self.reg_array(
            "wbb_valid", WBB_ENTRIES, 1, ff_class=FlipFlopClass.PROTECTED
        )
        self.wbb_addr = self.reg_array(
            "wbb_addr", WBB_ENTRIES, 40, ff_class=FlipFlopClass.PROTECTED
        )
        self.wbb_data = self.reg_array(
            "wbb_data", WBB_ENTRIES, 512, ff_class=FlipFlopClass.PROTECTED
        )

        # ---- output queue / invalidation queue ------------------------------
        self._oq = self._queue_fields("oq", OQ_ENTRIES)
        self.oq_head = self.reg("oq_head", 4)
        self.oq_tail = self.reg("oq_tail", 4)
        self.oq_count = self.reg("oq_count", 5)
        self.invq_valid = self.reg_array("invq_valid", INVQ_ENTRIES, 1)
        self.invq_core = self.reg_array("invq_core", INVQ_ENTRIES, 3)
        self.invq_addr = self.reg_array("invq_addr", INVQ_ENTRIES, 40)

        # ---- MCU interface / flow control ------------------------------------
        self.mcu_req_valid = self.reg("mcu_req_valid", 1)
        self.mcu_req_op = self.reg("mcu_req_op", 1)
        self.mcu_req_addr = self.reg("mcu_req_addr", 40)
        self.mcu_req_tag = self.reg("mcu_req_tag", 16)
        self.mcu_req_data = self.reg("mcu_req_data", 512)
        self.fill_credits = self.reg("fill_credits", 3, reset_value=FQ_ENTRIES)
        self.mb_next_tag = self.reg("mb_next_tag", 16)

        # ---- store-miss completion signalling (QRR hook) ----------------------
        self.store_miss_done_valid = self.reg("store_miss_done_valid", 1)
        self.store_miss_done_reqid = self.reg("store_miss_done_reqid", 16)

        # ---- config registers (hardened under QRR, Sec. 6.4 cat. 2) ------------
        self.cfg_enable = self.reg("cfg_cache_enable", 1, reset_value=1, config=True)
        self.cfg_bank_id = self.reg(
            "cfg_bank_id", 6, reset_value=bank, config=True
        )
        self.reg("cfg_mode", 48, reset_value=0x2A, config=True)

        # ---- performance/debug counters (non-functional) -----------------------
        self.perf_hits = self.reg("perf_hits", 64, functional=False)
        self.perf_misses = self.reg("perf_misses", 64, functional=False)
        self.perf_evictions = self.reg("perf_evictions", 64, functional=False)
        self.perf_fills = self.reg("perf_fills", 64, functional=False)
        self.dbg_last_addr = self.reg("dbg_last_addr", 40, functional=False)

        # ---- arbitration / timing-critical control (hardened, cat. 1) -----------
        # These registers sit on the critical tag-lookup path; QRR hardens
        # them instead of adding a parity XOR tree (1,650 FFs, Sec. 6.4).
        # They shadow the per-lookup compare values: the functional result
        # is recomputed from the SRAMs each cycle, so a flip here is
        # overwritten by the next lookup of the same set.
        # functional=False: the architected hit result is recomputed from
        # the SRAMs every lookup, so these shadows never feed back.
        self.arb_grant = self.reg(
            "arb_grant_vec", 46, timing_critical=True, functional=False
        )
        self.tag_cmp_stage = self.reg_array(
            "tag_cmp_stage", 8, 128, timing_critical=True, functional=False
        )
        self.way_sel_stage = self.reg_array(
            "way_sel_stage", 10, 58, timing_critical=True, functional=False
        )

        # ---- ECC-protected data-path staging (Table 4: excluded) ----------------
        self.ecc_fill_stage = self.reg_array(
            "ecc_fill_stage", 4, 576, ff_class=FlipFlopClass.PROTECTED
        )
        self.reg_array("ecc_data_out", 2, 576, ff_class=FlipFlopClass.PROTECTED)
        self.reg_array("ecc_dir_stage", 2, 576, ff_class=FlipFlopClass.PROTECTED)
        self.pad(FlipFlopClass.PROTECTED, "ecc_tag_stage")

        # ---- inactive BIST / redundancy chains (Table 4: excluded) ---------------
        self.reg_array("bist_scan_chain", 97, 48, ff_class=FlipFlopClass.INACTIVE)

        # ---- balance register bank: brings the target total to Table 4 ------------
        self.pad(FlipFlopClass.TARGET, "csr_shadow", width=61)
        self.check_totals()

        #: every valid array a tick consumes (see :meth:`idle`)
        self._live_valids = tuple(stage[0] for stage in self._pipe) + (
            self._mb[0], self.fq_valid, self.wbb_valid, self.invq_valid
        )

        #: store-miss completions observed this tick (QRR hook).
        self.store_miss_completions: list[int] = []
        #: operations executed this tick as (reqid, reply_packet) -- the
        #: QRR request/completion monitor snoops this to learn when an
        #: operation's architected effect has been applied (reply_packet
        #: is None for store-miss completions, whose ack went out earlier).
        self.exec_log: list[tuple[int, "CpxPacket | None"]] = []
        #: protocol anomalies observed (malformed packets etc.).
        self.protocol_errors = 0
        #: when True, writes to the architected SRAMs are suppressed and
        #: output-valid signals are gated (QRR recovery, Sec. 6.2).
        self.write_disable = False

    # ------------------------------------------------------------------
    # Register-bank plumbing
    # ------------------------------------------------------------------
    def _queue_fields(self, prefix: str, entries: int) -> tuple:
        regs = self._queues[prefix] = tuple(
            self.reg_array(f"{prefix}_{field}", entries, width)
            for field, width in _PKT_BITS.items()
        )
        return regs

    @staticmethod
    def _entry_read(regs: tuple, idx: int) -> PcxPacket:
        _v, ptype, core, thread, addr, data, reqid = regs
        return PcxPacket.unpack_fields(
            ptype.values[idx],
            core.values[idx],
            thread.values[idx],
            addr.values[idx],
            data.values[idx],
            reqid.values[idx],
        )

    @staticmethod
    def _entry_write(regs: tuple, idx: int, fields: tuple) -> None:
        """Latch ``pack_fields()`` output (already field-width masked)
        into entry ``idx`` and set its valid bit."""
        rv, rp, rc, rt, ra, rd, rq = regs
        ptype, core, thread, addr, data, reqid = fields
        rv.values[idx] = 1
        rp.values[idx] = ptype
        rc.values[idx] = core
        rt.values[idx] = thread
        ra.values[idx] = addr
        rd.values[idx] = data
        rq.values[idx] = reqid

    def _entry_valid(self, prefix: str, idx: int) -> bool:
        return bool(self._queues[prefix][0].values[idx])

    # ------------------------------------------------------------------
    # Architected array helpers
    # ------------------------------------------------------------------
    def _line_index(self, set_idx: int, way: int) -> int:
        return set_idx * self.ways + way

    def _lookup(self, addr: int) -> "tuple[int, int] | None":
        set_idx = self.amap.set_of(addr)
        tag = self.amap.tag_of(addr)
        hit = None
        hit_vector = 0
        for way in range(self.ways):
            li = self._line_index(set_idx, way)
            if self.state_sram.read(li) & 1 and self.tag_sram.read(li) == tag:
                hit = (set_idx, way)
                hit_vector |= 1 << way
        # latch the compare/select stages (timing-critical shadow state;
        # the architected result above is recomputed from the SRAMs)
        self.tag_cmp_stage.write(set_idx % 8, (tag << 8) | hit_vector)
        self.way_sel_stage.write(
            set_idx % 10, (hit_vector << 40) | (addr & ((1 << 40) - 1))
        )
        self.arb_grant.write((self.arb_grant.value << 1 | bool(hit)) & ((1 << 46) - 1))
        return hit

    def _read_word(self, li: int, word: int) -> int:
        return (self.data_sram.read(li) >> (64 * word)) & _WORD_MASK

    def _write_word(self, li: int, word: int, value: int) -> None:
        if self.write_disable:
            return
        line = self.data_sram.read(li)
        shift = 64 * word
        line = (line & ~(_WORD_MASK << shift)) | ((value & _WORD_MASK) << shift)
        self.data_sram.write(li, line)

    def _emit_cpx(self, pkt: CpxPacket) -> bool:
        """Push a CPX packet into the output queue (False when full)."""
        if self.write_disable:
            return True  # output-valid gated during recovery
        if self.oq_count.value >= OQ_ENTRIES:
            return False
        tail = self.oq_tail.value % OQ_ENTRIES
        self._entry_write(self._oq, tail, pkt.pack_fields())
        self.oq_tail.write((self.oq_tail.value + 1) % OQ_ENTRIES)
        self.oq_count.write(self.oq_count.value + 1)
        return True

    def _queue_inv(self, core: int, line_addr: int) -> None:
        for i in range(INVQ_ENTRIES):
            if not self.invq_valid.read(i):
                self.invq_valid.write(i, 1)
                self.invq_core.write(i, core)
                self.invq_addr.write(i, line_addr)
                return
        # queue overflow drops the invalidation (bounded hardware);
        # counts as a protocol anomaly
        self.protocol_errors += 1

    def _send_invs(self, li: int, line_addr: int, keep_core: int = -1) -> None:
        directory = self.dir_sram.read(li)
        core = 0
        while directory:
            if directory & 1 and core != keep_core:
                self._queue_inv(core, line_addr)
            directory >>= 1
            core += 1

    # ------------------------------------------------------------------
    # Server interface (same shape as HighLevelL2Bank)
    # ------------------------------------------------------------------
    def accept(self, pkt: PcxPacket, cycle: int) -> bool:
        if self.write_disable:
            return False  # QRR recovery blocks new packets
        if self.iq_count.value >= IQ_ENTRIES:
            return False
        tail = self.iq_tail.value % IQ_ENTRIES
        self._entry_write(self._iq, tail, pkt.pack_fields())
        self.iq_tail.write((self.iq_tail.value + 1) % IQ_ENTRIES)
        self.iq_count.write(self.iq_count.value + 1)
        return True

    def deliver_mcu_reply(self, reply: McuReply) -> None:
        data_int = 0
        for i, word in enumerate(reply.data):
            data_int |= (word & _WORD_MASK) << (64 * i)
        for i in range(FQ_ENTRIES):
            if not self.fq_valid.read(i):
                self.fq_valid.write(i, 1)
                self.fq_addr.write(i, reply.line_addr)
                self.fq_data.write(i, data_int)
                # ECC staging mirrors the fill data (protected path)
                self.ecc_fill_stage.write(i % 4, data_int & ((1 << 576) - 1))
                return
        self.protocol_errors += 1  # fill with no free FQ entry

    def tick(self, cycle: int) -> list[CpxPacket]:
        self.store_miss_completions = []
        self.exec_log = []
        self.store_miss_done_valid.value = 0
        self.store_miss_done_reqid.value = 0
        if not self.write_disable:
            if any(self.wbb_valid.values):
                self._drain_writeback()
            if any(self.fq_valid.values):
                self._process_fill()
            self._advance_pipeline()
            if any(self.invq_valid.values):
                self._drain_invq()
        if not self.oq_count.value:
            return []
        return self._drain_oq()

    def in_flight(self) -> int:
        count = self.iq_count.value + self.oq_count.value
        for valid in self._live_valids:
            count += sum(map(bool, valid.values))
        count += bool(self.mcu_req_valid.value)
        return count

    def idle(self) -> bool:
        if (
            self.iq_count.value
            or self.oq_count.value
            or self.mcu_req_valid.value
            or self.store_miss_done_valid.value
            or self.store_miss_done_reqid.value
        ):
            return False
        for valid in self._live_valids:
            if any(valid.values):
                return False
        return True

    # ------------------------------------------------------------------
    # Datapath stages
    # ------------------------------------------------------------------
    def _drain_writeback(self) -> None:
        valid = self.wbb_valid.values
        for i in range(WBB_ENTRIES):
            if valid[i]:
                data_int = self.wbb_data.read(i)
                words = tuple(
                    (data_int >> (64 * w)) & _WORD_MASK for w in range(WORDS_PER_LINE)
                )
                self.send_mcu(
                    McuRequest(
                        McuOp.WRITE, self.wbb_addr.read(i), words, self.bank, 0
                    )
                )
                self.wbb_valid.write(i, 0)
                return  # one writeback per cycle

    def _alloc_wbb(self, line_addr: int, data_int: int) -> bool:
        for i in range(WBB_ENTRIES):
            if not self.wbb_valid.read(i):
                self.wbb_valid.write(i, 1)
                self.wbb_addr.write(i, line_addr)
                self.wbb_data.write(i, data_int)
                return True
        return False

    def _process_fill(self) -> None:
        if self.oq_count.value > OQ_ENTRIES - 4:
            return  # ensure completion CPX/INVs can always be queued
        slot = None
        fq_valid = self.fq_valid.values
        for i in range(FQ_ENTRIES):
            if fq_valid[i]:
                slot = i
                break
        if slot is None:
            return
        fill_addr = self.fq_addr.values[slot]
        # find the miss-buffer entry this fill answers
        mb_idx = None
        mb_valid = self._mb[0].values
        mb_addr = self._mb[4].values
        line_addr = self.amap.line_addr
        for i in range(MB_ENTRIES):
            if mb_valid[i] and line_addr(mb_addr[i]) == fill_addr:
                mb_idx = i
                break
        if mb_idx is None:
            # orphaned fill (e.g. corrupted MB address): drop it
            self.fq_valid.write(slot, 0)
            self.fill_credits.write(min(FQ_ENTRIES, self.fill_credits.value + 1))
            self.protocol_errors += 1
            return
        # choose victim
        set_idx = self.amap.set_of(fill_addr)
        victim_way = None
        for way in range(self.ways):
            if not (self.state_sram.read(self._line_index(set_idx, way)) & 1):
                victim_way = way
                break
        rotated = False
        if victim_way is None:
            victim_way = self.victim_sram.read(set_idx) % self.ways
            rotated = True
        li = self._line_index(set_idx, victim_way)
        state = self.state_sram.read(li)
        if state & 1:
            victim_addr = self.amap.rebuild_addr(
                self.tag_sram.read(li), set_idx, self.bank
            )
            if state & 2:  # dirty: needs writeback
                if not self._alloc_wbb(victim_addr, self.data_sram.read(li)):
                    return  # WBB full; retry next cycle (pointer untouched)
            self._send_invs(li, victim_addr)
            self.perf_evictions.write(self.perf_evictions.value + 1)
        if rotated and not self.write_disable:
            self.victim_sram.write(set_idx, (victim_way + 1) % self.ways)
        # install the line
        if not self.write_disable:
            self.tag_sram.write(li, self.amap.tag_of(fill_addr))
            self.state_sram.write(li, 1)
            self.data_sram.write(li, self.fq_data.read(slot))
            self.dir_sram.write(li, 0)
        self.fq_valid.write(slot, 0)
        self.fill_credits.write(min(FQ_ENTRIES, self.fill_credits.value + 1))
        self.perf_fills.write(self.perf_fills.value + 1)
        # complete the miss-buffer operation
        pkt = self._entry_read(self._mb, mb_idx)
        self._execute_op(pkt, li, is_fill_completion=True, mb_idx=mb_idx)

    def _advance_pipeline(self) -> None:
        p1, p2, p3, p4 = self._pipe
        # execute stage (P4)
        if p4[0].values[0]:
            pkt = self._entry_read(p4, 0)
            if self._dependency_blocked(pkt.addr):
                return  # whole pipeline stalls behind the dependency
            loc = self._lookup(pkt.addr)
            if loc is not None:
                li = self._line_index(*loc)
                self.perf_hits.write(self.perf_hits.value + 1)
                if not self._execute_op(pkt, li, is_fill_completion=False):
                    return  # OQ back-pressure: retry next cycle
                p4[0].values[0] = 0
            else:
                if not self._start_miss(pkt):
                    return  # MB/credit back-pressure
                p4[0].values[0] = 0
            self.dbg_last_addr.write(pkt.addr)
        # shift P3->P4, P2->P3, P1->P2 (through a packet, as the stage
        # latches decode: a malformed type field reads back normalized)
        for dst, src in ((p4, p3), (p3, p2), (p2, p1)):
            if not dst[0].values[0] and src[0].values[0]:
                self._entry_write(dst, 0, self._entry_read(src, 0).pack_fields())
                src[0].values[0] = 0
        # IQ head -> P1
        if not p1[0].values[0] and self.iq_count.value > 0:
            head = self.iq_head.value % IQ_ENTRIES
            iq_valid = self._iq[0].values
            if iq_valid[head]:
                self._entry_write(p1, 0, self._entry_read(self._iq, head).pack_fields())
            else:
                # valid bit flipped away: the request is lost
                self.protocol_errors += 1
            iq_valid[head] = 0
            self.iq_head.write((self.iq_head.value + 1) % IQ_ENTRIES)
            self.iq_count.write(self.iq_count.value - 1)

    def _dependency_blocked(self, addr: int) -> bool:
        """A request whose line has an outstanding miss, or whose line is
        sitting in the writeback buffer, must wait (WBB snooping prevents
        a fill read overtaking the victim's writeback)."""
        line_addr = self.amap.line_addr
        line = line_addr(addr)
        mb_valid = self._mb[0].values
        mb_addr = self._mb[4].values
        for i in range(MB_ENTRIES):
            if mb_valid[i] and line_addr(mb_addr[i]) == line:
                return True
        wbb_valid = self.wbb_valid.values
        wbb_addr = self.wbb_addr.values
        for i in range(WBB_ENTRIES):
            if wbb_valid[i] and wbb_addr[i] == line:
                return True
        return False

    def _start_miss(self, pkt: PcxPacket) -> bool:
        if self.fill_credits.value == 0:
            return False
        if pkt.ptype is PcxType.STORE and self.oq_count.value >= OQ_ENTRIES:
            return False  # the immediate store ack must not be dropped
        mb_idx = None
        mb_valid = self._mb[0].values
        for i in range(MB_ENTRIES):
            if not mb_valid[i]:
                mb_idx = i
                break
        if mb_idx is None:
            return False
        self.perf_misses.write(self.perf_misses.value + 1)
        self._entry_write(self._mb, mb_idx, pkt.pack_fields())
        self.mb_state.write(mb_idx, 1)  # waiting for fill
        self.fill_credits.write(self.fill_credits.value - 1)
        # stage and send the MCU read
        self.mcu_req_valid.write(1)
        self.mcu_req_op.write(McuOp.READ)
        self.mcu_req_addr.write(self.amap.line_addr(pkt.addr))
        tag = self.mb_next_tag.value
        self.mb_next_tag.write((tag + 1) & 0xFFFF)
        self.mcu_req_tag.write(tag)
        self.send_mcu(
            McuRequest(
                McuOp.READ, self.mcu_req_addr.value, None, self.bank, tag
            )
        )
        self.mcu_req_valid.write(0)
        # a store miss acknowledges the core immediately; the line fill
        # continues in the miss buffer after the return packet
        if pkt.ptype is PcxType.STORE:
            self._emit_cpx(
                CpxPacket(
                    CpxType.STORE_ACK, pkt.core, pkt.thread, pkt.addr, 0, pkt.reqid
                )
            )
        return True

    def _execute_op(
        self,
        pkt: PcxPacket,
        li: int,
        is_fill_completion: bool,
        mb_idx: "int | None" = None,
    ) -> bool:
        """Perform the architected operation on resident line ``li``.

        Returns False if output back-pressure prevents completion (only
        possible for the hit path; fill completions always finish).
        """
        word = self.amap.word_in_line(pkt.addr)
        line_addr = self.amap.line_addr(pkt.addr)
        if pkt.ptype in (PcxType.LOAD, PcxType.IFETCH):
            value = self._read_word(li, word)
            ctype = (
                CpxType.LOAD_RET if pkt.ptype is PcxType.LOAD else CpxType.IFETCH_RET
            )
            reply = CpxPacket(ctype, pkt.core, pkt.thread, pkt.addr, value, pkt.reqid)
            if not self._emit_cpx(reply):
                return False
            if not self.write_disable:
                self.dir_sram.write(li, self.dir_sram.read(li) | (1 << pkt.core))
            self.exec_log.append((pkt.reqid, reply))
        elif pkt.ptype is PcxType.STORE:
            reply = None
            if not is_fill_completion:
                reply = CpxPacket(
                    CpxType.STORE_ACK, pkt.core, pkt.thread, pkt.addr, 0, pkt.reqid
                )
                if not self._emit_cpx(reply):
                    return False
            self._send_invs(li, line_addr, keep_core=pkt.core)
            self._write_word(li, word, pkt.data)
            if not self.write_disable:
                self.state_sram.write(li, self.state_sram.read(li) | 2)
                self.dir_sram.write(li, 1 << pkt.core)
            self.exec_log.append((pkt.reqid, reply))
            if is_fill_completion:
                # post-return-packet store-miss completion (QRR monitors this)
                self.store_miss_done_valid.write(1)
                self.store_miss_done_reqid.write(pkt.reqid)
                self.store_miss_completions.append(pkt.reqid)
        elif pkt.ptype in (PcxType.ATOMIC_TAS, PcxType.ATOMIC_ADD):
            old = self._read_word(li, word)
            new = 1 if pkt.ptype is PcxType.ATOMIC_TAS else (old + pkt.data)
            reply = CpxPacket(
                CpxType.ATOMIC_RET, pkt.core, pkt.thread, pkt.addr, old, pkt.reqid
            )
            if not self._emit_cpx(reply):
                return False
            if not (pkt.ptype is PcxType.ATOMIC_ADD and pkt.data == 0):
                # (fetch-and-add of zero is a pure atomic read)
                self._send_invs(li, line_addr)
                self._write_word(li, word, new)
                if not self.write_disable:
                    self.state_sram.write(li, self.state_sram.read(li) | 2)
                    self.dir_sram.write(li, 0)
            self.exec_log.append((pkt.reqid, reply))
        else:
            # malformed packet type: protocol error, request dropped
            self.protocol_errors += 1
        if mb_idx is not None:
            self._mb[0].values[mb_idx] = 0
            self.mb_state.write(mb_idx, 0)
        return True

    def _drain_invq(self) -> None:
        sent = 0
        for i in range(INVQ_ENTRIES):
            if sent >= 2:
                break
            if self.invq_valid.read(i):
                if self._emit_cpx(
                    CpxPacket(
                        CpxType.INVALIDATE,
                        self.invq_core.read(i),
                        0,
                        self.invq_addr.read(i),
                        0,
                        0,
                    )
                ):
                    self.invq_valid.write(i, 0)
                    sent += 1

    def _drain_oq(self) -> list[CpxPacket]:
        out: list[CpxPacket] = []
        valid, ptype, core, thread, addr, data, reqid = self._oq
        for _ in range(2):  # return bandwidth: 2 packets/cycle
            if self.oq_count.value == 0:
                break
            head = self.oq_head.value % OQ_ENTRIES
            if valid.values[head]:
                out.append(
                    CpxPacket.unpack_fields(
                        ptype.values[head],
                        core.values[head],
                        thread.values[head],
                        addr.values[head],
                        data.values[head],
                        reqid.values[head],
                    )
                )
            else:
                self.protocol_errors += 1  # packet lost to a valid-bit flip
            valid.values[head] = 0
            self.oq_head.write((self.oq_head.value + 1) % OQ_ENTRIES)
            self.oq_count.write(self.oq_count.value - 1)
        return out

    def dma_update(self, addr: int, value: int) -> None:
        """Coherent device write: patch the resident copy and any
        in-flight fill data for the same line (see the high-level model's
        docstring for why both are required)."""
        word = self.amap.word_in_line(addr)
        loc = self._lookup(addr)
        if loc is not None:
            self._write_word(self._line_index(*loc), word, value)
        line_addr = self.amap.line_addr(addr)
        for i in range(FQ_ENTRIES):
            if self.fq_valid.read(i) and self.fq_addr.read(i) == line_addr:
                data = self.fq_data.read(i)
                shift = 64 * word
                data = (data & ~(_WORD_MASK << shift)) | (
                    (value & _WORD_MASK) << shift
                )
                self.fq_data.write(i, data)

    # ------------------------------------------------------------------
    # State transfer (co-simulation entry / exit)
    # ------------------------------------------------------------------
    def load_state(self, state: L2BankState) -> None:
        """Write the high-level bank state into the architected SRAMs."""
        for set_idx in range(self.sets):
            for way in range(self.ways):
                li = self._line_index(set_idx, way)
                line = state.lines[set_idx][way]
                self.tag_sram.write(li, line.tag)
                self.state_sram.write(
                    li, (1 if line.valid else 0) | (2 if line.dirty else 0)
                )
                data_int = 0
                for w, word in enumerate(line.data):
                    data_int |= (word & _WORD_MASK) << (64 * w)
                self.data_sram.write(li, data_int)
                self.dir_sram.write(li, line.directory)
            self.victim_sram.write(set_idx, state.victim_ptr[set_idx] % 8)

    def extract_state(self, state: L2BankState) -> None:
        """Read the architected SRAMs back into the high-level state.

        Carries any corruption the injected error left in the arrays --
        the accelerated mode then simulates its downstream effects
        (paper Fig. 2, step 10).
        """
        for set_idx in range(self.sets):
            for way in range(self.ways):
                li = self._line_index(set_idx, way)
                line = state.lines[set_idx][way]
                bits = self.state_sram.read(li)
                line.valid = bool(bits & 1)
                line.dirty = bool(bits & 2)
                line.tag = self.tag_sram.read(li)
                data_int = self.data_sram.read(li)
                line.data = [
                    (data_int >> (64 * w)) & _WORD_MASK for w in range(WORDS_PER_LINE)
                ]
                line.directory = self.dir_sram.read(li)
            state.victim_ptr[set_idx] = self.victim_sram.read(set_idx) % self.ways

    # ------------------------------------------------------------------
    # Mismatch benignity (co-simulation exit condition 2)
    # ------------------------------------------------------------------
    _QUEUE_PREFIXES = ("iq", "oq", "mb", "p1", "p2", "p3", "p4")

    def is_mismatch_benign(self, mismatch: Mismatch) -> bool:
        if super().is_mismatch_benign(mismatch):
            return True
        if mismatch.kind is not MismatchKind.FLIP_FLOP:
            return False
        name = mismatch.name
        for prefix in self._QUEUE_PREFIXES:
            if name.startswith(prefix + "_") and not name.endswith("_valid"):
                # corrupted field of an entry whose valid flag is clear
                if not self._entry_valid(prefix, mismatch.entry):
                    return True
        if name.startswith("fq_") and name != "fq_valid":
            return not self.fq_valid.read(mismatch.entry)
        if name.startswith("wbb_") and name != "wbb_valid":
            return not self.wbb_valid.read(mismatch.entry)
        if name.startswith("invq_") and name != "invq_valid":
            return not self.invq_valid.read(mismatch.entry)
        if name.startswith("mcu_req_") and name != "mcu_req_valid":
            return not self.mcu_req_valid.value
        return False
