"""Functional (high-level) model of one L2 cache bank.

Processes PCX requests strictly in arrival order.  Hits complete one per
cycle; a miss blocks the bank's queue head until the MCU fill returns
(the paper's observation that the L2C orders dependent requests is thus
conservative here: the functional model orders *all* requests, which is
the same total order QRR enforces).  Architected content lives in a
shared :class:`repro.mem.l2state.L2BankState`, which is what the
mixed-mode platform transfers to/from the RTL model.

Store semantics are write-allocate/write-back at the L2, write-through
from the cores' L1s, with directory-based L1 invalidation:

* STORE: write the word, mark dirty, invalidate every directory core
  except the storer, directory := {storer}.
* LOAD: return the word, directory |= {requester}.
* Atomics: serialize at the bank, invalidate all directory cores,
  directory := {} (atomics are never L1-cached).
* Eviction of a line invalidates all directory cores (inclusive L2).
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from repro.mem.l2state import L2BankState
from repro.soc.address import AddressMap
from repro.soc.packets import (
    CpxPacket,
    CpxType,
    McuOp,
    McuReply,
    McuRequest,
    PcxPacket,
    PcxType,
)

#: Return-path latency charged on a hit (tag + data pipeline).
HIT_LATENCY = 8
#: Input queue capacity; accept() back-pressures beyond this.
INPUT_QUEUE_DEPTH = 16

#: Shared empty tick result (callers never mutate it).
_EMPTY: list = []


class HighLevelL2Bank:
    """Accelerated-mode model of one L2 cache bank (L2C instance).

    Args:
        bank: bank index (0..7).
        state: the architected bank state (shared with state transfer).
        send_mcu: callback delivering an :class:`McuRequest` to the MCU
            serving this bank.
        log_store: optional callback ``(word_addr, cycle)`` recording
            processor stores for the rollback-distance analysis.
    """

    def __init__(
        self,
        bank: int,
        state: L2BankState,
        send_mcu: Callable[[McuRequest], None],
        log_store: "Callable[[int, int], None] | None" = None,
    ) -> None:
        self.bank = bank
        self.state = state
        self.amap: AddressMap = state.amap
        self.send_mcu = send_mcu
        self.log_store = log_store
        self._queue: deque[PcxPacket] = deque()
        #: Completed CPX packets waiting out their latency: (ready, pkt).
        self._out: deque[tuple[int, CpxPacket]] = deque()
        #: Head-of-queue miss waiting for a fill: (pkt, mcu_tag).
        self._waiting_fill: tuple[PcxPacket, int] | None = None
        self._fill_data: tuple[int, ...] | None = None
        self._next_tag = 0
        self.hits = 0
        self.misses = 0

    # ------------------------------------------------------------------
    # Server interface
    # ------------------------------------------------------------------
    def accept(self, pkt: PcxPacket, cycle: int) -> bool:
        """Enqueue a request; False when the input queue is full."""
        if len(self._queue) >= INPUT_QUEUE_DEPTH:
            return False
        self._queue.append(pkt)
        return True

    def deliver_mcu_reply(self, reply: McuReply) -> None:
        """Fill data arriving from the MCU."""
        if self._waiting_fill is not None and reply.tag == self._waiting_fill[1]:
            self._fill_data = reply.data

    def dma_update(self, addr: int, value: int) -> None:
        """Coherent device write: update the resident copy if present.

        DMA traffic enters the T2 memory subsystem through the L2, so a
        device write must be visible to subsequent cached accesses.  The
        word is updated in place when the line is resident (main memory
        is written by the caller either way).  An *in-flight fill* of the
        same line captured pre-DMA data and must be patched too, or the
        install would resurrect the stale value.
        """
        word = self.amap.word_in_line(addr)
        loc = self.state.lookup(addr)
        if loc is not None:
            set_idx, way = loc
            line = self.state.lines[set_idx][way]
            line.data[word] = value & ((1 << 64) - 1)
        if (
            self._fill_data is not None
            and self._waiting_fill is not None
            and self.amap.line_addr(self._waiting_fill[0].addr)
            == self.amap.line_addr(addr)
        ):
            data = list(self._fill_data)
            data[word] = value & ((1 << 64) - 1)
            self._fill_data = tuple(data)

    def tick(self, cycle: int) -> list[CpxPacket]:
        """Advance one cycle; returns CPX packets leaving this cycle."""
        # 1. finish a pending fill, if its data arrived
        if self._waiting_fill is not None:
            if self._fill_data is not None:
                pkt, _tag = self._waiting_fill
                self._install_and_complete(pkt, self._fill_data, cycle)
                self._waiting_fill = None
                self._fill_data = None
        # 2. otherwise process the queue head (lookup inlined: this is
        #    the hottest uncore leaf in the repository)
        else:
            queue = self._queue
            if queue:
                pkt = queue.popleft()
                addr = pkt.addr
                amap = self.amap
                set_idx = (addr >> amap._set_shift) & amap._set_mask
                tag = addr >> amap._tag_shift
                hit_way = None
                for way, line in enumerate(self.state.lines[set_idx]):
                    if line.valid and line.tag == tag:
                        hit_way = way
                        break
                if hit_way is not None:
                    self.hits += 1
                    self._complete(pkt, (set_idx, hit_way), cycle)
                else:
                    self.misses += 1
                    tag = self._next_tag
                    self._next_tag = (self._next_tag + 1) & 0xFFFF
                    self.send_mcu(
                        McuRequest(
                            McuOp.READ, addr & ~63, None, self.bank, tag
                        )
                    )
                    self._waiting_fill = (pkt, tag)
        # 3. release CPX packets whose latency elapsed
        out = self._out
        if not out or out[0][0] > cycle:
            return _EMPTY
        ready: list[CpxPacket] = []
        while out and out[0][0] <= cycle:
            ready.append(out.popleft()[1])
        return ready

    def in_flight(self) -> int:
        return len(self._queue) + len(self._out) + (self._waiting_fill is not None)

    def next_active_cycle(self) -> "int | None":
        """Earliest cycle ``tick`` can do observable work (None: idle).

        A bank waiting on an MCU fill whose data has not arrived sleeps;
        the machine wakes it when it routes the reply.  Completed packets
        waiting out their latency wake the bank at the head's ready cycle
        (the out queue is in ready order: every emit charges the same
        latency at monotonically increasing cycles).
        """
        if self._waiting_fill is not None:
            nxt = 0 if self._fill_data is not None else None
        elif self._queue:
            nxt = 0
        else:
            nxt = None
        if self._out:
            ready = self._out[0][0]
            if nxt is None or ready < nxt:
                nxt = ready
        return nxt

    # ------------------------------------------------------------------
    # Functional operations
    # ------------------------------------------------------------------
    def _install_and_complete(
        self, pkt: PcxPacket, data: tuple[int, ...], cycle: int
    ) -> None:
        """Install a filled line (evicting a victim) and run the op."""
        set_idx = self.amap.set_of(pkt.addr)
        way = self.state.choose_victim(set_idx)
        victim = self.state.lines[set_idx][way]
        if victim.valid:
            victim_addr = self.amap.rebuild_addr(victim.tag, set_idx, self.bank)
            if victim.dirty:
                self.send_mcu(
                    McuRequest(
                        McuOp.WRITE,
                        victim_addr,
                        tuple(victim.data),
                        self.bank,
                        0,
                    )
                )
            self._invalidate_directory(victim, victim_addr, cycle)
        victim.valid = True
        victim.dirty = False
        victim.tag = self.amap.tag_of(pkt.addr)
        victim.data = list(data)
        victim.directory = 0
        self._complete(pkt, (set_idx, way), cycle, was_miss=True)

    def _invalidate_directory(
        self, line, line_addr: int, cycle: int, keep_core: int = -1
    ) -> None:
        """Send INVALIDATE packets to every directory core except one."""
        directory = line.directory
        if not directory or (
            keep_core >= 0 and directory == 1 << keep_core
        ):
            # empty directory, or only the kept core caches the line:
            # nothing to invalidate (the common store case)
            return
        core = 0
        while directory:
            if directory & 1 and core != keep_core:
                self._out.append(
                    (
                        cycle + HIT_LATENCY,
                        CpxPacket(CpxType.INVALIDATE, core, 0, line_addr, 0, 0),
                    )
                )
            directory >>= 1
            core += 1

    def _complete(
        self,
        pkt: PcxPacket,
        loc: tuple[int, int],
        cycle: int,
        was_miss: bool = False,
        _LOAD=PcxType.LOAD,
        _STORE=PcxType.STORE,
        _TAS=PcxType.ATOMIC_TAS,
        _ADD=PcxType.ATOMIC_ADD,
    ) -> None:
        set_idx, way = loc
        line = self.state.lines[set_idx][way]
        addr = pkt.addr
        word = (addr & 63) >> 3
        ptype = pkt.ptype
        core = pkt.core
        ready = cycle + HIT_LATENCY  # MCU latency (if any) already elapsed
        if ptype is _LOAD or ptype is PcxType.IFETCH:
            line.directory |= 1 << core
            ctype = CpxType.LOAD_RET if ptype is _LOAD else CpxType.IFETCH_RET
            self._out.append(
                (
                    ready,
                    CpxPacket(
                        ctype, core, pkt.thread, addr, line.data[word], pkt.reqid
                    ),
                )
            )
        elif ptype is _STORE:
            self._invalidate_directory(line, addr & ~63, cycle, keep_core=core)
            line.data[word] = pkt.data
            line.dirty = True
            line.directory = 1 << core
            if self.log_store is not None:
                self.log_store(addr & ~7, cycle)
            self._out.append(
                (
                    ready,
                    CpxPacket(
                        CpxType.STORE_ACK, core, pkt.thread, addr, 0, pkt.reqid
                    ),
                )
            )
        elif ptype is _TAS or ptype is _ADD:
            old = line.data[word]
            if ptype is _ADD and pkt.data == 0:
                # fetch-and-add of zero is a pure atomic read: no array
                # write, no dirtying, no invalidation traffic
                pass
            else:
                self._invalidate_directory(line, addr & ~63, cycle)
                if ptype is _TAS:
                    line.data[word] = 1
                else:
                    line.data[word] = (old + pkt.data) & ((1 << 64) - 1)
                line.dirty = True
                line.directory = 0
                if self.log_store is not None:
                    self.log_store(addr & ~7, cycle)
            self._out.append(
                (
                    ready,
                    CpxPacket(
                        CpxType.ATOMIC_RET, core, pkt.thread, addr, old, pkt.reqid
                    ),
                )
            )
        else:  # pragma: no cover - all PcxTypes handled
            raise ValueError(f"unhandled packet type {pkt.ptype}")

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return self._snapshot(self.state.snapshot())

    def delta_snapshot(self, anchor: list) -> dict:
        """:meth:`snapshot` with the bank state as its changes against
        ``anchor`` (see :meth:`L2BankState.delta`)."""
        return self._snapshot(self.state.delta(anchor))

    def _snapshot(self, state) -> dict:
        return {
            "state": state,
            "queue": list(self._queue),
            "out": list(self._out),
            "waiting_fill": self._waiting_fill,
            "fill_data": self._fill_data,
            "next_tag": self._next_tag,
            "hits": self.hits,
            "misses": self.misses,
        }

    def restore(self, snap: dict) -> None:
        self.state.restore(snap["state"])
        self._queue = deque(snap["queue"])
        self._out = deque(snap["out"])
        self._waiting_fill = snap["waiting_fill"]
        self._fill_data = snap["fill_data"]
        self._next_tag = snap["next_tag"]
        self.hits = snap["hits"]
        self.misses = snap["misses"]
