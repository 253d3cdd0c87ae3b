"""The full-system machine (accelerated mode, paper Fig. 1a).

Binds cores, crossbar, L2 banks, MCUs, the PCIe DMA engine and DRAM into
a cycle-steppable SoC.  All uncore components are pluggable: the
mixed-mode platform swaps a high-level model for an RTL adapter at
co-simulation entry and back at exit.  **Anything that swaps an uncore
component in or out goes through :meth:`Machine.swap`**, which writes
the slot and reschedules it for the event-driven engine.

Two cycle engines share identical observable behaviour:

* ``engine="event"`` (default) -- an activity-tracked, event-driven
  stepper.  Each high-level uncore component reports its next-active
  cycle (:meth:`next_active_cycle`); ``step()`` only ticks components
  that are due and cores that can issue, and the batched run loop skips
  whole idle stretches (all uncore quiescent, no core issuable) in one
  hop.  The L2C, CCX and PCIe co-simulation adapters keep the protocol
  too: they sleep while both RTL copies are idle.  Components without
  it (the MCU adapter, whose refresh engine advances every cycle; QRR
  servers) are ticked every cycle.
* ``engine="reference"`` -- the original everything-every-cycle stepper,
  kept as the differential-testing and benchmarking baseline.

The machine also provides the services the analyses need:

* address-validity checking (a corrupted pointer dereference traps,
  which is how uncore errors become UT outcomes),
* the application output channel (OMM detection),
* a per-word last-store log (rollback-distance analysis, Fig. 9),
* a corrupted-line watch set (error-propagation latency, Fig. 8),
* whole-machine snapshots (the platform's 2M-cycle checkpoints), with
  delta capture support for :class:`repro.system.snapshots.SnapshotChain`.
"""

from __future__ import annotations

import bisect
import dataclasses
from array import array
from collections import deque
from dataclasses import dataclass
from itertools import compress

from repro.core.cpu import Core, ThreadState
from repro.mem.dram import Dram
from repro.mem.l2state import L2BankState
from repro.soc.address import AddressMap
from repro.soc.packets import CpxPacket, CpxType, McuReply, McuRequest, PcxPacket
from repro.system.outcome import RunResult
from repro.uncore.highlevel.ccx import HighLevelCcx
from repro.uncore.highlevel.l2c import HighLevelL2Bank
from repro.uncore.highlevel.mcu import HighLevelMcu
from repro.uncore.highlevel.pcie import HighLevelPcieDma
from repro.workloads.base import WorkloadImage

#: Engines understood by :class:`Machine`.
ENGINES = ("event", "reference")

#: The engine used when none is requested.
DEFAULT_ENGINE = "event"

#: Wake-cycle sentinels for the active-set scheduler.
_NEVER = 1 << 62
_ALWAYS = -1

#: Stands in for an output slot the previous delta capture did not hold.
_MISSING = object()


@dataclass(frozen=True)
class MachineConfig:
    """Machine geometry and timing.

    Defaults are the reproduction-scale configuration: the T2's 8 cores
    and 8 L2 banks with scaled cache capacities.  Tests use smaller
    geometries.
    """

    cores: int = 8
    threads_per_core: int = 2
    l1_words: int = 512
    l2_banks: int = 8
    l2_sets: int = 32
    l2_ways: int = 8
    mcus: int = 4
    ccx_latency: int = 3
    #: machine-wide no-retirement window that declares a Hang
    watchdog_cycles: int = 30_000
    #: absolute cycle cap (safety net; campaigns also cap at a multiple
    #: of the error-free length)
    max_cycles: int = 2_000_000

    @property
    def total_threads(self) -> int:
        return self.cores * self.threads_per_core

    def instances(self, component: str) -> int:
        """Instances of an uncore component on this machine."""
        if component == "l2c":
            return self.l2_banks
        if component == "mcu":
            return self.mcus
        return 1

    def to_dict(self) -> dict:
        """Plain-dict form for the experiment-spec JSON schema."""
        return dataclasses.asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "MachineConfig":
        """Inverse of :meth:`to_dict` (ignores unknown keys)."""
        known = {f.name for f in dataclasses.fields(cls)}
        return cls(**{k: v for k, v in data.items() if k in known})


class _DmaPort:
    """Routes PCIe DMA writes through the machine's coherent path."""

    def __init__(self, machine: "Machine") -> None:
        self._machine = machine

    def write_word(self, addr: int, value: int) -> None:
        self._machine.dma_write_word(addr, value)


class Machine:
    """A cycle-steppable SoC model."""

    def __init__(
        self,
        config: "MachineConfig | None" = None,
        engine: "str | None" = None,
    ) -> None:
        # a fresh config per machine -- a shared module-import-time
        # default instance would alias every machine built without one
        config = config if config is not None else MachineConfig()
        engine = engine if engine is not None else DEFAULT_ENGINE
        if engine not in ENGINES:
            raise ValueError(f"unknown engine {engine!r}; known: {ENGINES}")
        self.config = config
        self.engine = engine
        self._reference = engine == "reference"
        self.amap = AddressMap(
            l2_banks=config.l2_banks, l2_sets=config.l2_sets, mcus=config.mcus
        )
        self.cycle = 0
        #: total cycles this machine has advanced through (including
        #: event-engine idle hops); monotonic, never snapshot/restored --
        #: the benchmark harness's cycles/sec numerator
        self.cycles_advanced = 0
        self.dram = Dram()
        self.output: dict[int, int] = {}
        self.last_store_cycle: dict[int, int] = {}
        self._reqid = 1
        self._regions: list[tuple[int, int, str]] = []
        self._region_starts: list[int] = []
        #: (base, end) of the most recently hit region (empty sentinel)
        self._region_cache = (1, 0)
        self._last_retire_cycle = 0
        self.retired_total = 0
        #: word addresses known to be corrupted by an injected error;
        #: first load touching one records the propagation cycle.
        self.corrupt_watch: set[int] = set()
        self.corrupt_read_cycle: "int | None" = None
        #: process-local digest of the loaded programs (snapshots hold
        #: no code, so this is what ties a machine to its golden run)
        self.program_digest: "int | None" = None
        #: the crossbar drain log while one is kept (see
        #: :meth:`log_ccx_drains`), else None
        self.ccx_drain_log: "array | None" = None

        self.ccx = HighLevelCcx(latency=config.ccx_latency)
        self.cores: list[Core] = [
            Core(
                i,
                l1_words=config.l1_words,
                issue_pcx=self._issue_pcx,
                check_addr=self._check_addr,
                write_output=self._write_output,
                alloc_reqid=self._alloc_reqid,
            )
            for i in range(config.cores)
        ]
        for core in self.cores:
            core.on_thread_stop = self._thread_stopped
        self.l2states: list[L2BankState] = [
            L2BankState(b, self.amap, ways=config.l2_ways)
            for b in range(config.l2_banks)
        ]
        self.l2banks: list = [
            HighLevelL2Bank(
                b,
                self.l2states[b],
                send_mcu=self._send_mcu,
                log_store=self._log_store,
            )
            for b in range(config.l2_banks)
        ]
        self.mcus: list = [
            HighLevelMcu(m, self.dram, send_reply=self._route_mcu_reply)
            for m in range(config.mcus)
        ]
        self.pcie = HighLevelPcieDma(_DmaPort(self), log_store=self._log_store)
        #: per-bank ingress FIFOs preserving arrival order under
        #: back-pressure (per-bank total order is what TSO and QRR rely on)
        self._bank_ingress: list[deque[PcxPacket]] = [
            deque() for _ in range(config.l2_banks)
        ]
        self._mcu_ingress: list[deque[McuRequest]] = [
            deque() for _ in range(config.mcus)
        ]
        # -- event-engine bookkeeping ----------------------------------
        #: threads not yet HALTED/TRAPPED, and threads that trapped --
        #: the O(1) run-loop termination checks
        self._live_threads = 0
        self._trapped_threads = 0
        #: per-component next-due cycles and their global minimum
        self._wake_banks: list[int] = [_NEVER] * config.l2_banks
        self._wake_mcus: list[int] = [_NEVER] * config.mcus
        self._wake_ccx = _NEVER
        self._wake_pcie = _NEVER
        self._uncore_wake = _NEVER
        # -- delta-snapshot bookkeeping --------------------------------
        self._delta_tracking = False
        self._store_log_dirty: "set[int] | None" = None
        #: what the last delta capture recorded, diffed against at the
        #: next one (None: delta tracking off): per bank its line records
        #: (``L2BankState.delta_anchor``), and the output channel
        self._bank_anchors: "list[list] | None" = None
        self._output_anchor: "dict[int, int] | None" = None
        self._dirty_banks = [True] * config.l2_banks
        self._dirty_mcus = [True] * config.mcus
        self._dirty_pcie = True
        self._refresh_wakes()
        # per-instance dispatch: step() callers skip the engine branch
        if self._reference:
            self.step = self._step_reference
        else:
            self.step = self._step_event
        # -- observability -----------------------------------------------
        # Handles are frozen here: preallocated counter objects mutated
        # via `c.value += 1` behind a single is-None check, so the
        # disabled path costs one attribute load at coarse chokepoints
        # (uncore wakes, snapshots) and nothing per cycle.  Counters
        # never feed back into simulated state -- the engines stay
        # bit-identical with obs on or off.
        from repro import obs

        if obs.enabled():
            labels = {"engine": engine}
            self._obs_uncore = obs.counter("machine.uncore_wakes", labels)
            self._obs_snap = obs.counter("machine.snapshots", labels)
            self._obs_restore = obs.counter("machine.restores", labels)
            self._obs_cycles = obs.counter("machine.cycles", labels)
        else:
            self._obs_uncore = None
            self._obs_snap = None
            self._obs_restore = None
            self._obs_cycles = None
        self._obs_cycles_flushed = 0

    # ------------------------------------------------------------------
    # Services wired into cores / uncore models
    # ------------------------------------------------------------------
    def _alloc_reqid(self) -> int:
        reqid = self._reqid
        self._reqid = (self._reqid + 1) & 0xFFFF or 1
        return reqid

    def _issue_pcx(self, pkt: PcxPacket) -> bool:
        bank = self.amap.bank_of(pkt.addr)
        self.ccx.send_pcx(bank, pkt, self.cycle)
        # a just-sent packet can only be ready at cycle + latency, and
        # anything older in the crossbar is already reflected in the
        # wake; fixed-latency models need no probe call here
        latency = self._ccx_latency
        wake = _ALWAYS if latency is None else self.cycle + latency
        if wake < self._wake_ccx:
            self._wake_ccx = wake
        if wake < self._uncore_wake:
            self._uncore_wake = wake
        return True

    def _check_addr(self, addr: int) -> bool:
        # most accesses land in the most recently hit region
        lo, hi = self._region_cache
        if lo <= addr < hi:
            return True
        if not self._region_starts:
            return False
        idx = bisect.bisect_right(self._region_starts, addr) - 1
        if idx < 0:
            return False
        base, size, _name = self._regions[idx]
        if base <= addr < base + size:
            self._region_cache = (base, base + size)
            return True
        return False

    def _write_output(self, slot: int, value: int) -> None:
        self.output[slot] = value

    def _log_store(self, word_addr: int, cycle: int) -> None:
        self.last_store_cycle[word_addr] = cycle
        if self._store_log_dirty is not None:
            self._store_log_dirty.add(word_addr)

    def _send_mcu(self, req: McuRequest) -> None:
        # order-preserving per-MCU ingress; drained in step() so a
        # back-pressuring MCU (RTL request queue full) never loses requests
        idx = self.amap.mcu_of_bank(req.src_bank)
        self._mcu_ingress[idx].append(req)
        cycle = self.cycle
        if self._wake_mcus[idx] > cycle:
            self._wake_mcus[idx] = cycle
        if self._mcus_wake_min > cycle:
            self._mcus_wake_min = cycle
        if self._uncore_wake > cycle:
            self._uncore_wake = cycle

    def dma_write_word(self, addr: int, value: int) -> None:
        """Coherent device write (PCIe DMA): memory plus resident L2 copy."""
        self.dram.write_word(addr, value)
        bank = self.amap.bank_of(addr)
        self.l2banks[bank].dma_update(addr, value)
        self._dirty_banks[bank] = True

    def _route_mcu_reply(self, reply: McuReply) -> None:
        bank = reply.src_bank
        self.l2banks[bank].deliver_mcu_reply(reply)
        self._dirty_banks[bank] = True
        wake = self.cycle + 1
        if self._wake_banks[bank] > wake:
            self._wake_banks[bank] = wake
        if self._banks_wake_min > wake:
            self._banks_wake_min = wake
        if self._uncore_wake > wake:
            self._uncore_wake = wake

    def _thread_stopped(self, trapped: bool) -> None:
        self._live_threads -= 1
        if trapped:
            self._trapped_threads += 1

    # ------------------------------------------------------------------
    # Activity tracking (the event engine's active set)
    # ------------------------------------------------------------------
    @staticmethod
    def _probe_of(comp):
        """The component's ``next_active_cycle`` method, or None for
        models without the protocol (the MCU co-simulation adapter, QRR
        servers): those are ticked every cycle.  The L2C, CCX and PCIe
        adapters answer it (asleep while both RTL copies are idle, else
        due now) and call :meth:`uncore_changed` whenever an injection
        mutates them outside the step loop."""
        return getattr(comp, "next_active_cycle", None)

    @staticmethod
    def _wake_from(probe) -> int:
        if probe is None:
            return _ALWAYS
        nxt = probe()
        return _NEVER if nxt is None else nxt

    def _refresh_wakes(self) -> None:
        """Recompute the whole activity schedule from component state."""
        self._nac_ccx = self._probe_of(self.ccx)
        self._nac_banks = [self._probe_of(bank) for bank in self.l2banks]
        self._nac_mcus = [self._probe_of(mcu) for mcu in self.mcus]
        self._nac_pcie = self._probe_of(self.pcie)
        # dense-activity short-circuit: for the stock high-level models
        # the next-active probe is inlined into the step loop (their
        # wake rule is a queue-head read), so a busy component costs no
        # method call per cycle.  Swapped-in components of any other
        # type (RTL adapters, QRR servers, test doubles) keep the
        # next_active_cycle protocol -- exact type match only.
        self._ccx_stock = type(self.ccx) is HighLevelCcx
        self._bank_stock = [type(b) is HighLevelL2Bank for b in self.l2banks]
        self._mcu_stock = [type(m) is HighLevelMcu for m in self.mcus]
        #: fixed crossbar latency when known (None: probe every send)
        self._ccx_latency = (
            getattr(self.ccx, "latency", None)
            if self._nac_ccx is not None
            else None
        )
        self._wake_ccx = self._wake_from(self._nac_ccx)
        self._wake_banks = [
            _ALWAYS if self._bank_ingress[i] else self._wake_from(probe)
            for i, probe in enumerate(self._nac_banks)
        ]
        self._wake_mcus = [
            _ALWAYS if self._mcu_ingress[i] else self._wake_from(probe)
            for i, probe in enumerate(self._nac_mcus)
        ]
        self._wake_pcie = self._wake_from(self._nac_pcie)
        self._banks_wake_min = min(self._wake_banks)
        self._mcus_wake_min = min(self._wake_mcus)
        self._recompute_uncore_wake()

    def _recompute_uncore_wake(self) -> None:
        wake = self._wake_ccx
        if self._wake_pcie < wake:
            wake = self._wake_pcie
        if self._banks_wake_min < wake:
            wake = self._banks_wake_min
        if self._mcus_wake_min < wake:
            wake = self._mcus_wake_min
        self._uncore_wake = wake

    def advance_until(self, target: int) -> bool:
        """Advance to absolute cycle ``target`` with exact early stop.

        Like :meth:`run_until_cycle`, but stops at the precise cycle at
        which every thread has halted/trapped (checked per advanced
        cycle, like the run loops).  Returns False on such an early
        stop.  The run drivers stop through :meth:`advance_to_exit`.
        """
        return self._advance(target, True)

    def advance_to_exit(self, cap: int, target: "int | None" = None) -> "str | None":
        """Advance to ``target`` unless a run exit comes first: the one
        run-exit rule of the golden run, phase 3 and :meth:`run`.

        Returns ``None`` at ``target``, or else the exit, at the cycle
        per-cycle simulation sees it: ``"trap"`` (a thread trapped),
        ``"halted"`` (every thread halted), ``"cap"`` (cycle ``cap``
        reached) or ``"watchdog"`` (no retirement for more than
        ``config.watchdog_cycles``).  Between chunks the checks run in
        that order, after "target reached": a run that halts exactly at
        ``target`` returns ``None`` first (the golden run checkpoints
        that cycle) and ``"halted"`` on the next call.  Each chunk ends
        at the first cycle the watchdog or the cap could fire (a
        retirement inside it only moves the watchdog later), and
        :meth:`_advance` stops inside a chunk at the exact trap or halt
        cycle.
        """
        watchdog = self.config.watchdog_cycles
        while True:
            if target is not None and self.cycle >= target:
                return None
            if self._trapped_threads:
                return "trap"
            if self._live_threads == 0:
                return "halted"
            if self.cycle >= cap:
                return "cap"
            limit = self._last_retire_cycle + watchdog + 1
            if self.cycle >= limit:
                return "watchdog"
            if cap < limit:
                limit = cap
            if target is not None and target < limit:
                limit = target
            self._advance(limit, True)

    def uncore_changed(self) -> None:
        """Reschedule after an uncore component changed outside the step
        loop (an injection into a sleeping adapter); otherwise the event
        engine may keep its earlier sleep schedule.  :meth:`swap` calls
        it for every component swap."""
        self._refresh_wakes()

    def swap(self, component: str, instance: int, server):
        """Put ``server`` in ``component``'s slot ``instance`` and
        reschedule; returns the previous occupant.  The one writer of
        ``l2banks``, ``mcus``, ``ccx`` and ``pcie`` after construction:
        the co-simulation adapters and QRR servers attach, detach and
        release through it."""
        if component == "l2c":
            previous, self.l2banks[instance] = self.l2banks[instance], server
        elif component == "mcu":
            previous, self.mcus[instance] = self.mcus[instance], server
        elif component == "ccx":
            previous, self.ccx = self.ccx, server
        elif component == "pcie":
            previous, self.pcie = self.pcie, server
        else:
            raise ValueError(f"unknown uncore component {component!r}")
        self.uncore_changed()
        return previous

    def log_ccx_drains(self) -> "array | None":
        """Start the crossbar drain log and return it; None (no log) on
        the reference engine or with a swapped-in crossbar.

        From here on :meth:`_advance` checks at every cycle boundary it
        reaches whether the crossbar is drained -- for the stock
        crossbar :meth:`drained` is "no wake scheduled" -- and appends
        each boundary at which that flips: even entries start a drained
        stretch, odd ones end it (the log opens with the current cycle
        when the crossbar is drained now).  So the crossbar is drained
        at boundary ``c`` iff an odd number of entries are ``<= c``.
        :meth:`step` does not log.  Set :attr:`ccx_drain_log` to None
        to stop.
        """
        if self._reference or not self._ccx_stock:
            return None
        self.ccx_drain_log = array(
            "I", [self.cycle] if self._wake_ccx == _NEVER else []
        )
        return self.ccx_drain_log

    def drained(self, component: str, instance: int) -> bool:
        """Whether ``component``'s slot ``instance`` holds no work: no
        operation in flight and nothing queued at its ingress.  An L2C
        bank also waits for its MCU, which owes it fills.  The DMA
        engine counts as drained (it is attached mid-transfer)."""
        if component == "mcu":
            return (
                self.mcus[instance].in_flight() == 0
                and not self._mcu_ingress[instance]
            )
        if component == "l2c":
            return (
                self.l2banks[instance].in_flight() == 0
                and not self._bank_ingress[instance]
                and self.drained("mcu", self.amap.mcu_of_bank(instance))
            )
        if component == "ccx":
            return self.ccx.in_flight() == 0
        return True

    def _recount_threads(self) -> None:
        live = trapped = 0
        for core in self.cores:
            for thread in core.threads:
                state = thread.state
                if state is not ThreadState.HALTED and (
                    state is not ThreadState.TRAPPED
                ):
                    live += 1
                if thread.trap is not None:
                    trapped += 1
        self._live_threads = live
        self._trapped_threads = trapped

    def live_threads(self) -> int:
        """Threads not yet halted or trapped (O(1))."""
        return self._live_threads

    def has_trap(self) -> bool:
        """Whether any thread has trapped (O(1); see :meth:`any_trap`)."""
        return self._trapped_threads > 0

    # ------------------------------------------------------------------
    # Memory layout
    # ------------------------------------------------------------------
    def alloc_region(self, base: int, size: int, name: str) -> None:
        """Register a valid memory region; overlaps are rejected."""
        if base & 7 or size <= 0:
            raise ValueError("regions must be word aligned with positive size")
        for obase, osize, oname in self._regions:
            if base < obase + osize and obase < base + size:
                raise ValueError(f"region {name!r} overlaps {oname!r}")
        self._regions.append((base, size, name))
        self._regions.sort()
        self._region_starts = [r[0] for r in self._regions]

    @property
    def regions(self) -> list[tuple[int, int, str]]:
        return list(self._regions)

    # ------------------------------------------------------------------
    # Workload loading
    # ------------------------------------------------------------------
    def load_workload(self, image: WorkloadImage, pcie_input: bool = False) -> None:
        """Install programs, regions and initial memory.

        With ``pcie_input`` set and an input file present, the file is
        DMA-transferred by the PCIe model while the application polls the
        completion flag; otherwise the input region is preloaded directly
        (the configuration used for L2C/MCU/CCX injection runs).
        """
        if image.threads() > self.config.total_threads:
            raise ValueError(
                f"workload has {image.threads()} threads; machine supports "
                f"{self.config.total_threads}"
            )
        for base, size, name in image.regions:
            self.alloc_region(base, size, name)
        for addr, value in image.init_words.items():
            self.dram.write_word(addr, value)
        self.program_digest = hash(tuple(image.programs))
        tpc = self.config.threads_per_core
        for idx, program in enumerate(image.programs):
            core = self.cores[idx // tpc]
            thread = core.add_thread(program)
            if idx < len(image.thread_regs):
                for reg, value in image.thread_regs[idx].items():
                    thread.write_reg(reg, value)
        if image.input_file_words is not None:
            if pcie_input:
                self.pcie.begin_transfer(
                    image.input_file_words,
                    image.input_dest,
                    image.input_status_addr,
                    cycle=0,
                )
            else:
                for i, word in enumerate(image.input_file_words):
                    self.dram.write_word(image.input_dest + 8 * i, word)
                self.dram.write_word(image.input_status_addr, 1)
        self._recount_threads()
        self._refresh_wakes()

    # ------------------------------------------------------------------
    # Cycle loop
    # ------------------------------------------------------------------
    def step(self) -> None:
        """Advance the whole machine by one cycle.

        (``__init__`` shadows this dispatcher with the engine's bound
        step method, so per-cycle calls skip the engine branch.)
        """
        if self._reference:
            self._step_reference()
        else:
            self._step_event()

    def _step_event(self) -> None:
        cycle = self.cycle
        # 1. cores issue (only cores with an issuable thread)
        retired = 0
        for core in self.cores:
            if core._issuable:
                if core.step(cycle):
                    retired += 1
        if retired:
            self.retired_total += retired
            self._last_retire_cycle = cycle
        # 2-6. uncore, only when some component is due
        if self._uncore_wake <= cycle:
            self._step_uncore(cycle)
        self.cycle = cycle + 1
        self.cycles_advanced += 1

    # perf/trace.py is the only reader of this alias (it patches the
    # name through the class dict)
    _step_event_compiled = _step_event

    def _step_uncore(self, cycle: int) -> None:
        """Tick every due uncore component, preserving the reference
        stage order (crossbar -> banks -> MCUs -> CPX delivery -> PCIe).

        Skipped components are provably no-ops this cycle: their
        :meth:`next_active_cycle` is in the future and nothing has been
        pushed at them since it was computed.

        The bank and MCU loops visit only the due components, picked at
        C level (``compress`` over ``wake <= cycle``) in index order, and
        take the stage's new minimum with ``min()``, so a cycle costs
        Python work per due component, not per component.  For the stock
        high-level models the per-component reschedule is inlined (their
        wake rule is a queue-head read), a just-delivered PCX packet is
        accepted straight into the bank's input queue when its ingress
        FIFO is empty (identical queue content at tick time), and the
        stock crossbar's no-op ``tick`` is skipped.
        """
        c = self._obs_uncore
        if c is not None:
            c.value += 1
        ccx = self.ccx
        wake_banks = self._wake_banks
        ccx_due = self._wake_ccx <= cycle
        ccx_stock = self._ccx_stock
        if ccx_due:
            if ccx_stock:
                # inlined HighLevelCcx.deliver_pcx: pop due packets
                # straight into the banks (counter kept in sync)
                pcxq = ccx._pcx
                if pcxq and pcxq[0][0] <= cycle:
                    banks = self.l2banks
                    bank_stock = self._bank_stock
                    bank_ingress = self._bank_ingress
                    delivered = 0
                    while pcxq and pcxq[0][0] <= cycle:
                        _ready, bank, pkt = pcxq.popleft()
                        delivered += 1
                        ingress = bank_ingress[bank]
                        if (
                            ingress
                            or not bank_stock[bank]
                            or not banks[bank].accept(pkt, cycle)
                        ):
                            ingress.append(pkt)
                        if wake_banks[bank] > cycle:
                            wake_banks[bank] = cycle
                    ccx.pcx_delivered += delivered
                    if self._banks_wake_min > cycle:
                        self._banks_wake_min = cycle
            else:
                ccx.tick(cycle)
                deliveries = ccx.deliver_pcx(cycle)
                if deliveries:
                    banks = self.l2banks
                    bank_stock = self._bank_stock
                    for bank, pkt in deliveries:
                        ingress = self._bank_ingress[bank]
                        if (
                            ingress
                            or not bank_stock[bank]
                            or not banks[bank].accept(pkt, cycle)
                        ):
                            ingress.append(pkt)
                        if wake_banks[bank] > cycle:
                            wake_banks[bank] = cycle
                    if self._banks_wake_min > cycle:
                        self._banks_wake_min = cycle
        # Due-only selection.  Invariant: ticking one bank (or MCU) never
        # lowers another component of the same stage to ``<= cycle``
        # within its loop -- a bank's tick reaches the MCUs (through their
        # ingress) and the crossbar, and an MCU's reply wakes its bank at
        # ``cycle + 1`` -- so the components a loop visits are exactly
        # those due when it starts, as in an index-order scan
        # (tests/test_issue_mask.py checks it on every tick).
        if self._banks_wake_min <= cycle:
            banks = self.l2banks
            bank_stock = self._bank_stock
            dirty_banks = self._dirty_banks
            for bank_idx in compress(
                range(len(banks)), map(cycle.__ge__, wake_banks)
            ):
                server = banks[bank_idx]
                dirty_banks[bank_idx] = True
                ingress = self._bank_ingress[bank_idx]
                while ingress:
                    if not server.accept(ingress[0], cycle):
                        break
                    ingress.popleft()
                sent = False
                for cpx in server.tick(cycle):
                    ccx.send_cpx(cpx, cycle, src=bank_idx)
                    sent = True
                if sent:
                    latency = self._ccx_latency
                    wake = _ALWAYS if latency is None else cycle + latency
                    if wake < self._wake_ccx:
                        self._wake_ccx = wake
                if ingress:
                    wake = cycle + 1
                elif bank_stock[bank_idx]:
                    # inlined HighLevelL2Bank.next_active_cycle
                    if server._waiting_fill is not None:
                        wake = (
                            cycle + 1
                            if server._fill_data is not None
                            else _NEVER
                        )
                    elif server._queue:
                        wake = cycle + 1
                    else:
                        wake = _NEVER
                    out = server._out
                    if out:
                        ready = out[0][0]
                        if ready < wake:
                            wake = ready
                else:
                    probe = self._nac_banks[bank_idx]
                    wake = _ALWAYS if probe is None else probe()
                    if wake is None:
                        wake = _NEVER
                wake_banks[bank_idx] = wake
            self._banks_wake_min = min(wake_banks)
        if self._mcus_wake_min <= cycle:
            wake_mcus = self._wake_mcus
            mcus = self.mcus
            mcu_stock = self._mcu_stock
            for mcu_idx in compress(range(len(mcus)), map(cycle.__ge__, wake_mcus)):
                mcu = mcus[mcu_idx]
                self._dirty_mcus[mcu_idx] = True
                ingress = self._mcu_ingress[mcu_idx]
                while ingress:
                    if not mcu.accept(ingress[0], cycle):
                        break
                    ingress.popleft()
                mcu.tick(cycle)
                if ingress:
                    wake = cycle + 1
                elif mcu_stock[mcu_idx]:
                    # inlined HighLevelMcu.next_active_cycle
                    queue = mcu._queue
                    wake = queue[0][0] if queue else _NEVER
                else:
                    probe = self._nac_mcus[mcu_idx]
                    wake = _ALWAYS if probe is None else probe()
                    if wake is None:
                        wake = _NEVER
                wake_mcus[mcu_idx] = wake
            self._mcus_wake_min = min(wake_mcus)
        if self._wake_ccx <= cycle:
            cores = self.cores
            ncores = len(cores)
            watch = self.corrupt_watch
            if ccx_stock:
                # inlined HighLevelCcx.deliver_cpx (counter kept in sync)
                cpxq = ccx._cpx
                delivered = 0
                while cpxq and cpxq[0][0] <= cycle:
                    cpx = cpxq.popleft()[1]
                    delivered += 1
                    ctype = cpx.ctype
                    if watch and self.corrupt_read_cycle is None:
                        if (cpx.addr & ~7) in watch and (
                            ctype is CpxType.LOAD_RET
                            or ctype is CpxType.ATOMIC_RET
                        ):
                            self.corrupt_read_cycle = cycle
                    if 0 <= cpx.core < ncores:
                        cores[cpx.core].deliver_cpx(cpx)
                if delivered:
                    ccx.cpx_delivered += delivered
                # inlined HighLevelCcx.next_active_cycle
                pcx = ccx._pcx
                wake = pcx[0][0] if pcx else _NEVER
                if cpxq:
                    ready = cpxq[0][0]
                    if ready < wake:
                        wake = ready
                self._wake_ccx = wake
            else:
                for cpx in ccx.deliver_cpx(cycle):
                    ctype = cpx.ctype
                    if watch and self.corrupt_read_cycle is None:
                        if (cpx.addr & ~7) in watch and (
                            ctype is CpxType.LOAD_RET
                            or ctype is CpxType.ATOMIC_RET
                        ):
                            self.corrupt_read_cycle = cycle
                    if 0 <= cpx.core < ncores:
                        cores[cpx.core].deliver_cpx(cpx)
                probe = self._nac_ccx
                wake = _ALWAYS if probe is None else probe()
                self._wake_ccx = _NEVER if wake is None else wake
        if self._wake_pcie <= cycle:
            self._dirty_pcie = True
            self.pcie.tick(cycle)
            probe = self._nac_pcie
            wake = _ALWAYS if probe is None else probe()
            self._wake_pcie = _NEVER if wake is None else wake
        wake = self._wake_ccx
        if self._wake_pcie < wake:
            wake = self._wake_pcie
        if self._banks_wake_min < wake:
            wake = self._banks_wake_min
        if self._mcus_wake_min < wake:
            wake = self._mcus_wake_min
        self._uncore_wake = wake

    def _step_reference(self) -> None:
        """The original everything-every-cycle stepper (baseline)."""
        cycle = self.cycle
        # 1. cores issue
        retired = 0
        for core in self.cores:
            if core.step(cycle):
                retired += 1
        if retired:
            self.retired_total += retired
            self._last_retire_cycle = cycle
        # 2. crossbar advances, then delivers toward banks
        #    (order-preserving per bank)
        self.ccx.tick(cycle)
        for bank, pkt in self.ccx.deliver_pcx(cycle):
            self._bank_ingress[bank].append(pkt)
        for bank_idx, ingress in enumerate(self._bank_ingress):
            server = self.l2banks[bank_idx]
            while ingress:
                if not server.accept(ingress[0], cycle):
                    break
                ingress.popleft()
        # 3. banks advance; returns go to the crossbar
        for bank_idx, server in enumerate(self.l2banks):
            for cpx in server.tick(cycle):
                self.ccx.send_cpx(cpx, cycle, src=bank_idx)
        # 4. MCUs accept queued requests and advance
        #    (replies delivered via _route_mcu_reply)
        for mcu_idx, mcu in enumerate(self.mcus):
            ingress = self._mcu_ingress[mcu_idx]
            while ingress:
                if not mcu.accept(ingress[0], cycle):
                    break
                ingress.popleft()
            mcu.tick(cycle)
        # 5. crossbar delivery toward cores
        for cpx in self.ccx.deliver_cpx(cycle):
            if self.corrupt_watch and self.corrupt_read_cycle is None:
                ctype = cpx.ctype
                if (cpx.addr & ~7) in self.corrupt_watch and (
                    ctype is CpxType.LOAD_RET or ctype is CpxType.ATOMIC_RET
                ):
                    self.corrupt_read_cycle = cycle
            if 0 <= cpx.core < len(self.cores):
                self.cores[cpx.core].deliver_cpx(cpx)
        # 6. PCIe DMA
        self.pcie.tick(cycle)
        self.cycle = cycle + 1
        self.cycles_advanced += 1

    def run(
        self,
        max_cycles: "int | None" = None,
        hang_factor_cycles: "int | None" = None,
    ) -> RunResult:
        """Run until completion, trap, hang or the cycle cap.

        ``hang_factor_cycles``, when given, is an absolute cycle count
        beyond which the run is declared hung (campaigns set it to a
        multiple of the error-free length).  The event engine stops
        through :meth:`advance_to_exit`; the reference engine keeps its
        own per-cycle loop, the independent check of that rule.
        """
        cap = max_cycles if max_cycles is not None else self.config.max_cycles
        if hang_factor_cycles is not None:
            cap = min(cap, hang_factor_cycles)
        if not self._reference:
            end = self.advance_to_exit(cap)
            if end == "halted":
                self._drain_uncore(limit=10_000)
            return RunResult(
                completed=end == "halted",
                cycles=self.cycle,
                output=dict(self.output),
                trap=self.any_trap() if end == "trap" else None,
                hung=end in ("cap", "watchdog"),
                retired=self.retired_total,
            )
        watchdog = self.config.watchdog_cycles
        while True:
            done = True
            for core in self.cores:
                trap = core.any_trapped()
                if trap is not None:
                    return RunResult(
                        completed=False,
                        cycles=self.cycle,
                        output=dict(self.output),
                        trap=trap,
                        retired=self.retired_total,
                    )
                if not core.all_halted():
                    done = False
            if done:
                self._drain_uncore(limit=10_000)
                return RunResult(
                    completed=True,
                    cycles=self.cycle,
                    output=dict(self.output),
                    retired=self.retired_total,
                )
            if self.cycle >= cap or self.cycle - self._last_retire_cycle > watchdog:
                return RunResult(
                    completed=False,
                    cycles=self.cycle,
                    output=dict(self.output),
                    hung=True,
                    retired=self.retired_total,
                )
            self.step()

    def uncore_idle(self) -> bool:
        """Whether all uncore components and ingress queues are empty."""
        if any(self._bank_ingress) or any(self._mcu_ingress):
            return False
        if self.ccx.in_flight() or self.pcie.in_flight():
            return False
        if any(bank.in_flight() for bank in self.l2banks):
            return False
        return not any(mcu.in_flight() for mcu in self.mcus)

    def _drain_uncore(self, limit: int) -> None:
        """Let posted stores / writebacks / DMA complete after halt."""
        for _ in range(limit):
            if self.uncore_idle():
                return
            self.step()

    def run_cycles(self, n: int) -> None:
        """Advance exactly ``n`` cycles (no termination checks)."""
        self.run_until_cycle(self.cycle + n)

    def run_until_cycle(self, target: int) -> None:
        """Advance to an absolute cycle count."""
        self._advance(target, False)

    def _advance(self, target: int, stop: bool) -> bool:
        """The run loop behind :meth:`run_until_cycle`,
        :meth:`advance_until` and :meth:`advance_to_exit`.

        Advances to absolute cycle ``target``; with ``stop`` set it
        returns False at the exact cycle at which every thread has
        halted or one has trapped.  The event engine issues only on cores
        with an issuable thread, ticks the uncore only when a component
        is due, and hops over idle stretches (no core issuable, uncore
        asleep) straight to the next uncore event, never past ``target``
        -- the skipped cycles are provably no-ops.  While
        :attr:`ccx_drain_log` is set it logs the crossbar's drained
        flips (:meth:`log_ccx_drains`).
        """
        if self._reference:
            while self.cycle < target:
                if stop and (self._live_threads == 0 or self._trapped_threads):
                    return False
                self.step()
            return True
        cores = self.cores
        log = self.ccx_drain_log
        drained = log is not None and len(log) % 2 == 1
        while self.cycle < target:
            if stop and (self._live_threads == 0 or self._trapped_threads):
                return False
            cycle = self.cycle
            retired = 0
            active = False
            for core in cores:
                if core._issuable:
                    active = True
                    if core.step(cycle):
                        retired += 1
            if retired:
                self.retired_total += retired
                self._last_retire_cycle = cycle
            if self._uncore_wake <= cycle:
                self._step_uncore(cycle)
                self.cycle = cycle + 1
                self.cycles_advanced += 1
            elif active:
                self.cycle = cycle + 1
                self.cycles_advanced += 1
            else:
                # an idle hop: nothing changes, the crossbar included
                nxt = self._uncore_wake
                if nxt > target:
                    nxt = target
                if nxt <= cycle:
                    nxt = cycle + 1
                self.cycles_advanced += nxt - cycle
                self.cycle = nxt
                continue
            if log is not None and (self._wake_ccx == _NEVER) is not drained:
                drained = not drained
                log.append(cycle + 1)
        return True

    # ------------------------------------------------------------------
    # Observability (digest-neutral; see repro.obs)
    # ------------------------------------------------------------------
    def obs_flush(self) -> None:
        """Publish the cycles advanced since the last flush into the
        metrics registry.  Called at coarse boundaries (end of a golden
        chunk, end of a campaign run) so the hot loops never touch the
        counter -- they keep incrementing the plain ``cycles_advanced``
        int they always had."""
        c = self._obs_cycles
        if c is not None:
            c.value += self.cycles_advanced - self._obs_cycles_flushed
            self._obs_cycles_flushed = self.cycles_advanced

    def instrument_phases(self, uncore=None, snapshot=None):
        """Install per-phase timers on this machine's chokepoints.

        ``uncore`` times :meth:`_step_uncore`; ``snapshot`` times
        :meth:`snapshot` and :meth:`delta_snapshot`.  Pass
        :class:`repro.obs.Timer` objects (their :meth:`~repro.obs.Timer.
        wrap` provides the timing shim).  Returns a zero-argument
        callable that removes the instrumentation.  This is the
        sanctioned phase-timing API -- the bench harness uses it for its
        golden phase breakdown instead of monkey-patching.

        Timing shims observe, never alter: wrapped methods run the
        originals unchanged, so instrumented runs stay bit-identical.
        The reference engine drives its uncore inline rather than
        through :meth:`_step_uncore`, so ``uncore`` only measures the
        event engine (callers skip phase timing for reference, as the
        bench always has).
        """
        originals = []
        if uncore is not None:
            originals.append(("_step_uncore", self._step_uncore))
            self._step_uncore = uncore.wrap(self._step_uncore)
        if snapshot is not None:
            originals.append(("snapshot", self.snapshot))
            originals.append(("delta_snapshot", self.delta_snapshot))
            self.snapshot = snapshot.wrap(self.snapshot)
            self.delta_snapshot = snapshot.wrap(self.delta_snapshot)

        def remove() -> None:
            for name, fn in originals:
                # the instance attribute shadowed the bound method;
                # deleting it restores normal class dispatch
                if getattr(fn, "__self__", None) is self:
                    delattr(self, name)
                else:  # pragma: no cover - nested instrumentation
                    setattr(self, name, fn)

        return remove

    def all_halted(self) -> bool:
        return all(core.all_halted() for core in self.cores)

    def any_trap(self):
        for core in self.cores:
            trap = core.any_trapped()
            if trap is not None:
                return trap
        return None

    # ------------------------------------------------------------------
    # Snapshots (the platform's periodic checkpoints, Sec. 2.2 phase 1)
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        c = self._obs_snap
        if c is not None:
            c.value += 1
        return {
            "cycle": self.cycle,
            "dram": self.dram.snapshot(),
            "output": dict(self.output),
            "last_store_cycle": dict(self.last_store_cycle),
            "reqid": self._reqid,
            "last_retire_cycle": self._last_retire_cycle,
            "retired_total": self.retired_total,
            "cores": [core.snapshot() for core in self.cores],
            "l2banks": [bank.snapshot() for bank in self.l2banks],
            "mcus": [mcu.snapshot() for mcu in self.mcus],
            "ccx": self.ccx.snapshot(),
            "pcie": self.pcie.snapshot(),
            "bank_ingress": [list(q) for q in self._bank_ingress],
            "mcu_ingress": [list(q) for q in self._mcu_ingress],
        }

    def restore(self, snap: dict) -> None:
        if self._delta_tracking:
            raise RuntimeError(
                "cannot restore while a delta snapshot capture is active"
            )
        c = self._obs_restore
        if c is not None:
            c.value += 1
        self.cycle = snap["cycle"]
        self.dram.restore(snap["dram"])
        self.output = dict(snap["output"])
        self.last_store_cycle = dict(snap["last_store_cycle"])
        self._reqid = snap["reqid"]
        self._last_retire_cycle = snap["last_retire_cycle"]
        self.retired_total = snap["retired_total"]
        for core, cstate in zip(self.cores, snap["cores"]):
            core.restore(cstate)
        for bank, bstate in zip(self.l2banks, snap["l2banks"]):
            bank.restore(bstate)
        for mcu, mstate in zip(self.mcus, snap["mcus"]):
            mcu.restore(mstate)
        self.ccx.restore(snap["ccx"])
        self.pcie.restore(snap["pcie"])
        self._bank_ingress = [deque(q) for q in snap["bank_ingress"]]
        self._mcu_ingress = [deque(q) for q in snap["mcu_ingress"]]
        self.corrupt_watch = set()
        self.corrupt_read_cycle = None
        self._recount_threads()
        self._refresh_wakes()
        self._dirty_banks = [True] * len(self.l2banks)
        self._dirty_mcus = [True] * len(self.mcus)
        self._dirty_pcie = True

    # ------------------------------------------------------------------
    # Delta capture (driven by repro.system.snapshots.SnapshotChain)
    # ------------------------------------------------------------------
    def delta_capture_begin(self) -> None:
        """Arm dirty tracking: the next :meth:`delta_snapshot` captures
        exactly what changed from this point on."""
        self.dram.start_dirty_tracking()
        for core in self.cores:
            core.delta_capture_begin()
        self._store_log_dirty = set()
        self._bank_anchors = [bank.state.delta_anchor() for bank in self.l2banks]
        self._output_anchor = dict(self.output)
        self._delta_tracking = True
        self._clear_dirty_flags()

    def delta_capture_end(self) -> None:
        """Disarm dirty tracking (no more delta captures)."""
        self.dram.stop_dirty_tracking()
        for core in self.cores:
            core.delta_capture_end()
        self._store_log_dirty = None
        self._bank_anchors = None
        self._output_anchor = None
        self._delta_tracking = False

    def _clear_dirty_flags(self) -> None:
        for core in self.cores:
            core.dirty = False
        self._dirty_banks = [False] * len(self.l2banks)
        self._dirty_mcus = [False] * len(self.mcus)
        self._dirty_pcie = False

    def delta_snapshot(self) -> dict:
        """State changed since the previous capture (see SnapshotChain).

        Components whose dirty flag is clear are recorded as ``None``
        (the chain folds forward from the previous stored entry).  The
        reference engine cannot attribute mutations to components, so it
        conservatively treats everything as dirty -- correct, just
        without the storage savings.  Within a dirty component only what
        changed is kept: an L2 bank's changed line records
        (:meth:`L2BankState.delta`), a core's changed thread records and
        touched L1 entries (:meth:`Core.delta_snapshot`).  The store log
        is packed as two int arrays ``(addresses, cycles)``, and the
        output channel as its changed slots.
        """
        if not self._delta_tracking:
            raise RuntimeError("delta_capture_begin() was not called")
        c = self._obs_snap
        if c is not None:
            c.value += 1
        all_dirty = self._reference
        store_dirty = self._store_log_dirty
        last_store = self.last_store_cycle
        output_anchor = self._output_anchor
        output = {
            slot: value
            for slot, value in self.output.items()
            if output_anchor.get(slot, _MISSING) != value
        }
        output_anchor.update(output)
        delta = {
            "cycle": self.cycle,
            "reqid": self._reqid,
            "last_retire_cycle": self._last_retire_cycle,
            "retired_total": self.retired_total,
            "output": output,
            "ccx": self.ccx.snapshot(),
            "bank_ingress": [list(q) for q in self._bank_ingress],
            "mcu_ingress": [list(q) for q in self._mcu_ingress],
            "dram": self.dram.take_dirty_delta(),
            "store_log": (
                array("q", store_dirty),
                array("q", [last_store[a] for a in store_dirty]),
            ),
            "cores": [
                core.delta_snapshot() if (all_dirty or core.dirty) else None
                for core in self.cores
            ],
            "l2banks": [
                bank.delta_snapshot(anchor) if (all_dirty or dirty) else None
                for bank, dirty, anchor in zip(
                    self.l2banks, self._dirty_banks, self._bank_anchors
                )
            ],
            "mcus": [
                mcu.snapshot() if (all_dirty or dirty) else None
                for mcu, dirty in zip(self.mcus, self._dirty_mcus)
            ],
            "pcie": (
                self.pcie.snapshot()
                if (all_dirty or self._dirty_pcie)
                else None
            ),
        }
        self._store_log_dirty = set()
        self._clear_dirty_flags()
        return delta
