"""Co-simulation adapters (paper Fig. 1b).

An adapter replaces one high-level uncore model inside the machine with
a pair of RTL instances: the **target** (error-injected, live -- its
outputs are what the system actually sees) and the **golden** copy
(identical, receives the same inputs, outputs only compared).  The
adapter implements the exact server interface of the high-level model it
replaces, so the machine is oblivious to the swap.

The two copies are identical until the fault lands, so warm-up ticks
the target alone.  The golden copy is forked from the target the first
time anything needs it: an injection entry point (before it mutates the
target) or a read of :attr:`CosimAdapterBase.golden`.  Until then the
target's memory port mirrors each write into the golden memory fork,
and the L2C records the fills in flight, so the fork leaves the golden
side exactly as an always-ticked golden copy would be.  The memory fork
itself is still taken at construction, and live device (DMA) writes
never reach it; an L2C or MCU adapter attached mid-transfer therefore
forks at once, since its golden reads would part from the target's.

Golden isolation invariants:

* the golden component never writes live memory -- its writebacks land
  in a private fork of DRAM;
* the golden component never reads live memory -- fills are served from
  the fork (so the target's corruption cannot launder the golden copy);
* both sides run behind write-tracking ports, so memory divergence is
  detected by comparing the two memories at the union of written
  addresses only.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass, field

from repro.mem.dram import WriteTrackingPort
from repro.rtl.compare import Mismatch
from repro.soc.packets import CpxPacket, McuReply, McuRequest, McuOp, PcxPacket
from repro.uncore.ccx import CcxRtl
from repro.uncore.l2c import L2cRtl
from repro.uncore.mcu import McuRtl
from repro.uncore.pcie import PcieRtl


@dataclass
class ComparisonStatus:
    """Result of one golden-model comparison (Fig. 2, step 7)."""

    mismatches: list[Mismatch] = field(default_factory=list)
    #: mismatches that can never cause a functional difference (cond. 2)
    benign: int = 0
    #: mismatches confined to high-level-mapped state (cond. 1)
    highlevel: int = 0
    #: remaining microarchitectural mismatches
    residual: int = 0
    #: word addresses where live memory diverged from the golden fork
    corrupted_words: list[int] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.mismatches and not self.corrupted_words

    @property
    def exitable(self) -> bool:
        """Accelerated mode can take over (all mismatches map out)."""
        return self.residual == 0


class _MirroredPort(WriteTrackingPort):
    """The target's DRAM port.  While ``mirror`` is set (until the golden
    fork) every write also lands behind it, the golden port, just as the
    identical golden copy would write it.  Reads are the plain port's."""

    __slots__ = ("mirror",)

    def __init__(self, dram, mirror: WriteTrackingPort) -> None:
        super().__init__(dram)
        self.mirror: "WriteTrackingPort | None" = mirror

    def write_word(self, addr: int, value: int) -> None:
        WriteTrackingPort.write_word(self, addr, value)
        if self.mirror is not None:
            self.mirror.write_word(addr, value)

    def write_line(self, line_addr: int, words) -> None:
        WriteTrackingPort.write_line(self, line_addr, words)
        if self.mirror is not None:
            self.mirror.write_line(line_addr, words)


class CosimAdapterBase:
    """Shared bookkeeping for all four component adapters."""

    def __init__(self) -> None:
        #: cycle of the first erroneous output from the target (Fig. 1b,
        #: item 6) -- return-packet comparison against the golden copy.
        self.erroneous_output_cycle: "int | None" = None
        #: the golden copy refused an input the target took (queue
        #: occupancy divergence); conservatively treated as propagation
        self.golden_diverged = False
        #: the golden copy once forked (see :attr:`golden`)
        self._golden = None

    # -- hooks implemented per component --------------------------------
    target = None
    #: the target's memory port, mirroring into ``golden_port`` (in front
    #: of the ``golden_dram`` fork) until the golden copy exists (None:
    #: the component has no memory traffic)
    target_port = None
    #: the target's Python-side (non-register) fields a fork copies
    _FORK_FIELDS: tuple = ()

    def _new_golden(self):
        """A fresh RTL module wired as the golden side."""
        raise NotImplementedError

    @property
    def golden(self):
        """The golden copy, forked from the target on first access."""
        self._fork_golden()
        return self._golden

    def _fork_golden(self) -> None:
        """Fork the golden copy from the target, unless it exists: the
        registers and SRAMs through a snapshot, the Python-side fields by
        copy.  Memory is not forked here -- the golden fork taken at
        construction has seen every target write through the mirror."""
        if self._golden is not None:
            return
        golden = self._new_golden()
        golden.restore(self.target.snapshot())
        for name in self._FORK_FIELDS:
            setattr(golden, name, copy.copy(getattr(self.target, name)))
        if self.target_port is not None:
            self.target_port.mirror = None
        self._golden = golden

    def _fork_if_dma_active(self) -> None:
        """Fork at once when attached while the machine's DMA engine is
        mid-transfer (only the PCIe adapter's own DMA is mirrored).
        Device writes reach live memory only, so the golden copy's reads
        of its fork would part from the target's before the fault."""
        if self.machine.pcie.active:
            self._fork_golden()

    def _note_output_mismatch(self, cycle: int) -> None:
        if self.erroneous_output_cycle is None:
            self.erroneous_output_cycle = cycle

    def compare(self) -> ComparisonStatus:
        status = ComparisonStatus()
        status.mismatches = self.target.compare(self.golden)
        for m in status.mismatches:
            if self.target.is_mismatch_benign(m):
                status.benign += 1
            elif self.target.mismatch_maps_to_highlevel(m):
                status.highlevel += 1
            else:
                status.residual += 1
        status.corrupted_words = self.memory_divergence()
        return status

    def memory_divergence(self) -> list[int]:
        """Word addresses where the error corrupted main memory: where
        live memory and the golden fork differ, among the words either
        side wrote (none for a component without memory traffic)."""
        if self.target_port is None:
            return []
        candidates = self.target_port.written | self.golden_port.written
        live = self.machine.dram
        return sorted(
            a for a in candidates
            if live.read_word(a) != self.golden_dram.read_word(a)
        )

    def quiescent(self) -> bool:
        return self.target.in_flight() == 0

    def next_active_cycle(self) -> "int | None":
        """The event engine's wake protocol: ``None`` (asleep until an
        input arrives) while the target and the golden copy, once
        forked, are idle, else 0 (due now)."""
        golden = self._golden
        if self.target.idle() and (golden is None or golden.idle()):
            return None
        return 0

    # Every injection entry point below forks the golden copy before it
    # mutates the target, and, since it mutates the target outside the
    # step loop, reschedules: a sleeping adapter wakes on the very next
    # step.

    def flip(self, bit_index: int) -> tuple[str, int, int]:
        """Inject the bit flip into the target (Fig. 1b, item 4)."""
        self._fork_golden()
        loc = self.target.flip_target_bit(bit_index)
        self.machine.uncore_changed()
        return loc

    # -- location-addressed injection (the fault-model subsystem) --------
    def flip_at(self, name: str, entry: int, bit: int) -> tuple[str, int, int]:
        """Flip an explicit flip-flop location in the target."""
        self._fork_golden()
        self.target.flip_bit(name, entry, bit)
        self.machine.uncore_changed()
        return (name, entry, bit)

    def flip_sram(self, name: str, entry: int, bit: int) -> tuple[str, int, int]:
        """Flip a bit inside one of the target's SRAM rows."""
        self._fork_golden()
        self.target.flip_sram_bit(name, entry, bit)
        self.machine.uncore_changed()
        return ("sram:" + name, entry, bit)

    def force_at(self, name: str, entry: int, bit: int, value: int) -> bool:
        """Force a target flip-flop to ``value`` (stuck-at assertion)."""
        self._fork_golden()
        changed = self.target.force_bit(name, entry, bit, value)
        if changed:
            self.machine.uncore_changed()
        return changed

    def release(self) -> None:
        """Unswap the adapter WITHOUT state transfer (abandoned runs)."""
        raise NotImplementedError


class L2cCosimAdapter(CosimAdapterBase):
    """Co-simulates one L2C bank against its golden copy.

    The golden copy's MCU traffic is *slaved* to the target's observed
    reply timing: the real MCU serves only the target; when a target
    fill reply arrives, the golden copy receives a reply for the same
    transaction with data read from the golden memory fork.  This keeps
    the two copies cycle-aligned without double-loading the real MCU.
    Target writebacks are applied to live memory immediately (the bank
    is the only writer of its address range), keeping write visibility
    symmetric between the two sides.

    Before the golden fork the target's read requests are recorded as
    the golden copy's pending reads, so the fork receives the fills
    already in flight.
    """

    _FORK_FIELDS = (
        "store_miss_completions", "exec_log", "protocol_errors", "write_disable"
    )

    def __init__(self, machine, bank: int) -> None:
        super().__init__()
        self.machine = machine
        self.bank = bank
        self.golden_dram = machine.dram.fork()
        self.golden_port = WriteTrackingPort(self.golden_dram)
        self.target_port = _MirroredPort(machine.dram, self.golden_port)
        self._golden_pending_reads: dict[int, int] = {}
        self.target = L2cRtl(
            bank, machine.amap, machine.config.l2_ways, send_mcu=self._target_mcu
        )
        self.target.load_state(machine.l2states[bank])
        self._fork_if_dma_active()

    def _new_golden(self) -> L2cRtl:
        return L2cRtl(
            self.bank,
            self.machine.amap,
            self.machine.config.l2_ways,
            send_mcu=self._golden_mcu,
        )

    # -- MCU plumbing ----------------------------------------------------
    def _target_mcu(self, req: McuRequest) -> None:
        if req.op is McuOp.WRITE:
            self.target_port.write_line(req.line_addr, req.data)
        else:
            if self._golden is None:
                self._golden_pending_reads[req.tag] = req.line_addr
            self.machine._send_mcu(req)

    def _golden_mcu(self, req: McuRequest) -> None:
        if req.op is McuOp.WRITE:
            self.golden_port.write_line(req.line_addr, req.data)
        else:
            self._golden_pending_reads[req.tag] = req.line_addr

    # -- server interface --------------------------------------------------
    def accept(self, pkt: PcxPacket, cycle: int) -> bool:
        ok = self.target.accept(pkt, cycle)
        golden = self._golden
        if ok and golden is not None and not golden.accept(pkt, cycle):
            self.golden_diverged = True
        return ok

    def deliver_mcu_reply(self, reply: McuReply) -> None:
        self.target.deliver_mcu_reply(reply)
        addr = self._golden_pending_reads.pop(reply.tag, None)
        if addr is not None and self._golden is not None:
            self._golden.deliver_mcu_reply(
                McuReply(addr, self.golden_port.read_line(addr), self.bank, reply.tag)
            )

    def tick(self, cycle: int) -> list[CpxPacket]:
        out_t = self.target.tick(cycle)
        golden = self._golden
        if golden is not None and out_t != golden.tick(cycle):
            self._note_output_mismatch(cycle)
        return out_t

    def in_flight(self) -> int:
        return self.target.in_flight()

    def dma_update(self, addr: int, value: int) -> None:
        """Coherent DMA update applied to both copies (device writes are
        error-free input, identical on both sides)."""
        self.target.dma_update(addr, value)
        if self._golden is not None:
            self._golden.dma_update(addr, value)

    # -- platform hooks -------------------------------------------------------
    def cache_corruption_words(self) -> list[int]:
        """Word addresses corrupted inside the architected cache arrays.

        Uses the *golden* copy's tags to name the affected lines (the
        golden values are the correct ones the application should see).
        """
        amap = self.machine.amap
        words: set[int] = set()
        t, g = self.target, self.golden
        for li in range(t.sets * t.ways):
            set_idx = li // t.ways
            g_state = g.state_sram.read(li)
            if not (g_state & 1):
                continue
            g_addr = amap.rebuild_addr(g.tag_sram.read(li), set_idx, self.bank)
            if (
                t.state_sram.read(li) != g_state
                or t.tag_sram.read(li) != g.tag_sram.read(li)
            ):
                for w in range(8):
                    words.add(g_addr + 8 * w)
            elif t.data_sram.read(li) != g.data_sram.read(li):
                diff = t.data_sram.read(li) ^ g.data_sram.read(li)
                for w in range(8):
                    if (diff >> (64 * w)) & ((1 << 64) - 1):
                        words.add(g_addr + 8 * w)
        return sorted(words)

    def attach(self) -> None:
        self.hl = self.machine.swap("l2c", self.bank, self)

    def detach(self) -> None:
        """Transfer the (possibly corrupted) state back (Fig. 2, step 10)."""
        self.target.extract_state(self.machine.l2states[self.bank])
        self.machine.swap("l2c", self.bank, self.hl)

    def release(self) -> None:
        self.machine.swap("l2c", self.bank, self.hl)


class McuCosimAdapter(CosimAdapterBase):
    """Co-simulates one MCU against its golden copy.

    The MCU is self-contained (requests in, replies/DRAM traffic out),
    so the golden copy simply runs on a fork of main memory, which sees
    the target's DRAM writes until the golden copy is forked.
    """

    _FORK_FIELDS = ("replies", "protocol_errors", "write_disable")

    #: no wake protocol: the refresh counter and strobe tracking advance
    #: every cycle, so the MCU never sleeps and is ticked every cycle
    #: (:meth:`McuRtl.tick` skips its datapath stages when they are idle)
    next_active_cycle = None

    def __init__(self, machine, mcu_idx: int) -> None:
        super().__init__()
        self.machine = machine
        self.mcu_idx = mcu_idx
        self.golden_dram = machine.dram.fork()
        self.golden_port = WriteTrackingPort(self.golden_dram)
        self.target_port = _MirroredPort(machine.dram, self.golden_port)
        self.target = McuRtl(mcu_idx, self.target_port)
        self._fork_if_dma_active()

    def _new_golden(self) -> McuRtl:
        return McuRtl(self.mcu_idx, self.golden_port)

    def accept(self, req: McuRequest, cycle: int) -> bool:
        ok = self.target.accept(req, cycle)
        golden = self._golden
        if ok and golden is not None and not golden.accept(req, cycle):
            self.golden_diverged = True
        return ok

    def tick(self, cycle: int) -> None:
        rep_t = self.target.tick(cycle)
        golden = self._golden
        if golden is not None and rep_t != golden.tick(cycle):
            self._note_output_mismatch(cycle)
        for reply in rep_t:
            self.machine._route_mcu_reply(reply)

    def in_flight(self) -> int:
        return self.target.in_flight()

    def attach(self) -> None:
        self.hl = self.machine.swap("mcu", self.mcu_idx, self)

    def detach(self) -> None:
        self.machine.swap("mcu", self.mcu_idx, self.hl)

    #: no state to transfer back: abandoning is detaching
    release = detach


class CcxCosimAdapter(CosimAdapterBase):
    """Co-simulates the crossbar against its golden copy.

    The crossbar holds no architected state (Table 1): its mismatches
    either vanish as queues drain or manifest as erroneous deliveries.
    """

    _FORK_FIELDS = ("protocol_errors", "dropped", "write_disable")

    def __init__(self, machine) -> None:
        super().__init__()
        self.machine = machine
        self.target = CcxRtl(machine.amap)

    def _new_golden(self) -> CcxRtl:
        return CcxRtl(self.machine.amap)

    def send_pcx(self, bank: int, pkt: PcxPacket, cycle: int) -> None:
        self.target.send_pcx(bank, pkt, cycle)
        if self._golden is not None:
            self._golden.send_pcx(bank, pkt, cycle)

    def send_cpx(self, pkt: CpxPacket, cycle: int, src: int = 0) -> None:
        self.target.send_cpx(pkt, cycle, src)
        if self._golden is not None:
            self._golden.send_cpx(pkt, cycle, src)

    def tick(self, cycle: int) -> None:
        self.target.tick(cycle)
        if self._golden is not None:
            self._golden.tick(cycle)

    def deliver_pcx(self, cycle: int) -> list[tuple[int, PcxPacket]]:
        out_t = self.target.deliver_pcx(cycle)
        golden = self._golden
        if golden is not None and out_t != golden.deliver_pcx(cycle):
            self._note_output_mismatch(cycle)
        return out_t

    def deliver_cpx(self, cycle: int) -> list[CpxPacket]:
        out_t = self.target.deliver_cpx(cycle)
        golden = self._golden
        if golden is not None and out_t != golden.deliver_cpx(cycle):
            self._note_output_mismatch(cycle)
        return out_t

    def in_flight(self) -> int:
        return self.target.in_flight()

    def attach(self) -> None:
        self.hl = self.machine.swap("ccx", 0, self)

    def detach(self) -> None:
        self.machine.swap("ccx", 0, self.hl)

    #: no state to transfer back: abandoning is detaching
    release = detach


class _CapturePort:
    """DMA write port that captures the per-tick write stream.

    While ``mirror`` is set (the target's port until the golden fork),
    every write also lands behind it, uncaptured."""

    def __init__(self, sink_write, mirror: "_CapturePort | None" = None) -> None:
        self._sink_write = sink_write
        self.mirror = mirror
        self.stream: list[tuple[int, int]] = []
        self.written: set[int] = set()

    def write_word(self, addr: int, value: int) -> None:
        self.stream.append((addr & ~7, value))
        self.written.add(addr & ~7)
        self._sink_write(addr, value)
        mirror = self.mirror
        if mirror is not None:
            mirror.written.add(addr & ~7)
            mirror._sink_write(addr, value)

    def take(self) -> list[tuple[int, int]]:
        out = self.stream
        self.stream = []
        return out


class PcieCosimAdapter(CosimAdapterBase):
    """Co-simulates the PCIe controller's DMA engine.

    The engine only *writes* (it streams the host-side input file into
    memory), so golden isolation reduces to capturing both write streams:
    the target writes through the machine's coherent DMA path, the golden
    writes into a memory fork.  Diverging streams are erroneous outputs;
    diverging memories are corruption.
    """

    _FORK_FIELDS = ("file_words", "start_cycle", "finish_cycle", "write_disable")

    def __init__(self, machine) -> None:
        super().__init__()
        self.machine = machine
        self.golden_dram = machine.dram.fork()
        self.golden_port = _CapturePort(self.golden_dram.write_word)
        self.target_port = _CapturePort(machine.dma_write_word, self.golden_port)
        # transfer the in-progress descriptor state from the high-level
        # model; the input file is an immutable tuple, shared
        hl = machine.pcie
        module = self.target = PcieRtl(self.target_port)
        module.file_words = hl.file_words
        module.dma_dest.write(hl.dest_base)
        module.dma_len.write(len(hl.file_words))
        module.dma_progress.write(hl.progress)
        module.dma_status_addr.write(hl.status_addr)
        module.dma_active.write(1 if hl.active else 0)
        module.start_cycle = hl.start_cycle
        module.finish_cycle = hl.finish_cycle

    def _new_golden(self) -> PcieRtl:
        return PcieRtl(self.golden_port)

    def begin_transfer(self, *args, **kwargs) -> None:  # pragma: no cover
        raise RuntimeError("transfers cannot be armed during co-simulation")

    def tick(self, cycle: int) -> None:
        self.target.tick(cycle)
        stream = self.target_port.take()
        golden = self._golden
        if golden is not None:
            golden.tick(cycle)
            if stream != self.golden_port.take():
                self._note_output_mismatch(cycle)

    def in_flight(self) -> int:
        return self.target.in_flight()

    @property
    def active(self) -> bool:
        return self.target.active

    def attach(self) -> None:
        self.hl = self.machine.swap("pcie", 0, self)

    def detach(self) -> None:
        """Copy the descriptor state back to the high-level model."""
        self.hl.progress = self.target.dma_progress.value
        self.hl.active = bool(self.target.dma_active.value)
        self.hl.finish_cycle = self.target.finish_cycle
        self.machine.swap("pcie", 0, self.hl)

    def release(self) -> None:
        self.machine.swap("pcie", 0, self.hl)


def make_adapter(machine, component: str, instance: int = 0) -> CosimAdapterBase:
    """Build the co-simulation adapter for one uncore component."""
    if component == "l2c":
        return L2cCosimAdapter(machine, instance)
    if component == "mcu":
        return McuCosimAdapter(machine, instance)
    if component == "ccx":
        return CcxCosimAdapter(machine)
    if component == "pcie":
        return PcieCosimAdapter(machine)
    raise ValueError(f"unknown uncore component {component!r}")
