"""The mixed-mode error-injection platform (paper Sec. 2, Fig. 2).

One :class:`MixedModePlatform` instance owns a machine, a workload, and
the error-free **golden run** artefacts (output, length, periodic
snapshots, store log).  Each :meth:`MixedModePlatform.run_injection`
executes the three phases of Fig. 2:

1. *Prepare*: restore the snapshot preceding the injection cycle, run
   accelerated to the injection cycle, quiesce the target component,
   attach the RTL target, warm up (the target alone: the golden copy
   would be identical until the fault lands).
2. *Inject*: fork the golden copy from the target, flip the chosen
   target flip-flop; co-simulate with periodic golden comparison; stop
   early on Vanished; hand over to accelerated mode once every remaining
   mismatch maps to high-level state; give up (Persistent) at the
   co-simulation cycle cap.
3. *Determine outcome*: continue in accelerated mode to completion and
   classify against the golden output (ONA / OMM / UT / Hang).
"""

from __future__ import annotations

import random
from array import array
from bisect import bisect_right
from dataclasses import dataclass, field

from repro.faults.event import FaultEvent
from repro.mixedmode.adapters import L2cCosimAdapter, make_adapter
from repro.system.machine import DEFAULT_ENGINE, Machine, MachineConfig
from repro.system.outcome import Outcome, RunResult, classify_outcome
from repro.system.snapshots import SnapshotChain
from repro.workloads import build_workload
from repro.workloads.base import WorkloadImage


@dataclass(frozen=True)
class CosimConfig:
    """Co-simulation parameters (paper values, reproduction-scaled).

    Attributes:
        snapshot_interval: accelerated-mode snapshot period Cf
            (paper: 2M cycles at full scale).  Delta snapshot chains
            made checkpoints cheap, so the default is dense: a shorter
            period directly cuts the phase-1 replay distance
            (restore-then-replay dominates injection-run setup).  The
            binding constraint is memory, not time: the chain's deltas
            grow about 4x from Cf 1,000 to 250, which alone lifted the
            table5-cold benchmark's peak RSS from 94 to 119 MiB, past
            its 5% bound.  250 became affordable once threads shared
            one compiled handler per distinct instruction
            (``repro.core.cpu``), which freed ~25 MiB there.  Results
            do not depend on Cf.
        warmup_min / warmup_jitter: warm-up period before injection; the
            actual period is ``warmup_min + U[0, warmup_jitter)``
            (paper: at least 1,000 cycles, randomized).
        check_interval: cycles between golden comparisons.
        cosim_cycle_cap: co-simulation length limit (paper: 100K cycles;
            Sec. 4.2 quantifies the cut-off).
        hang_factor: phase-3 cycle budget as a multiple of the error-free
            length before declaring a Hang.
        quiesce_limit: bound on waiting for the component to go idle:
            the target attaches at the first cycle boundary at which it
            is drained, or ``quiesce_limit`` cycles after the injection
            cycle, whichever comes first
            (:meth:`MixedModePlatform._attach_quiesced`).
    """

    snapshot_interval: int = 250
    warmup_min: int = 500
    warmup_jitter: int = 500
    check_interval: int = 100
    cosim_cycle_cap: int = 30_000
    hang_factor: float = 4.0
    quiesce_limit: int = 5_000


@dataclass
class GoldenRun:
    """Artefacts of the error-free reference execution.

    ``snapshots`` maps checkpoint cycle to a full machine snapshot; it
    is usually a :class:`~repro.system.snapshots.SnapshotChain` (deltas
    on disk -- materialized on access), but any mapping works.

    ``ccx_drains`` is the crossbar drain log over the run's cycle
    boundaries ``0 .. cycles`` (:meth:`Machine.log_ccx_drains`), kept by
    an event-engine run with a chain and None otherwise;
    :meth:`ccx_quiesced` reads it.
    """

    cycles: int
    output: dict[int, int]
    snapshots: "dict[int, dict] | SnapshotChain"
    pcie_window: "tuple[int, int] | None" = None
    retired: int = 0
    #: the golden machine's :attr:`Machine.program_digest`
    program_digest: "int | None" = None
    ccx_drains: "array | None" = None
    #: the checkpoint cycles, sorted
    _checkpoints: list = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        self._checkpoints = sorted(self.snapshots)

    def snapshot_at_or_before(self, cycle: int) -> tuple[int, dict]:
        """The last checkpoint ``<= cycle`` (cycle 0 when there is none)
        and its snapshot."""
        i = bisect_right(self._checkpoints, cycle)
        best = self._checkpoints[i - 1] if i else 0
        return best, self.snapshots[best]

    def ccx_quiesced(self, cycle: int, limit: int) -> "int | None":
        """The boundary at which a crossbar quiesce wait of at most
        ``limit`` cycles that starts at boundary ``cycle`` of this run
        attaches: the first drained boundary ``>= cycle``, or
        ``cycle + limit`` when none comes sooner.  None when the drain
        log cannot tell: there is none, or that boundary lies past the
        run's end, which the log does not reach.
        """
        log = self.ccx_drains
        if log is None:
            return None
        i = bisect_right(log, cycle)
        if i % 2:  # inside a drained stretch
            attach = cycle
        elif i < len(log):
            attach = min(log[i], cycle + limit)
        else:
            attach = cycle + limit
        return attach if attach <= self.cycles else None

    def finish(self, machine: Machine, hang_factor_cycles: int) -> RunResult:
        """Phase 3: ``machine.run(hang_factor_cycles=...)`` with an exact
        early stop once the machine re-converges with the golden run.

        The machine advances checkpoint to checkpoint through
        :meth:`Machine.advance_to_exit`, the exit rule ``machine.run``
        stops through as well.  At each golden
        checkpoint whose stored scalars (retired count, request id, last
        retire cycle) equal the machine's, the whole machine snapshot is
        compared with the checkpoint.  On equality the rest of the run
        can only replay the golden run, so the machine jumps to the
        golden halt state (:meth:`SnapshotChain.halt_state`: every
        thread halted, uncore not yet drained) and ``machine.run``
        drains the uncore from there.  The result, the final machine
        state and the next run are those of full simulation.

        * On an exit before a checkpoint (trap, completion, watchdog)
          the loop stops and ``machine.run`` returns at that same
          cycle.  The cycle cap cannot fire before the last checkpoint:
          with a cap below the golden length there is no jump to make.
        * No jump while a corrupted word is watched but not yet read (a
          later read still sets the propagation cycle); the watch fields
          survive the jump.

        ``machine`` must run the configuration the golden run ran on
        (the watchdog that never fired there is the one checked here),
        and its programs, or ``ValueError`` is raised: snapshots hold no
        code, so another program could match a checkpoint and jump to
        this run's halt state.
        """
        if machine.program_digest != self.program_digest:
            raise ValueError("machine runs other programs than the golden run")
        chain = self.snapshots
        cap = min(machine.config.max_cycles, hang_factor_cycles)
        if isinstance(chain, SnapshotChain) and self.cycles <= cap:
            for ckpt in chain:
                if ckpt < machine.cycle:
                    continue
                if machine.advance_to_exit(cap, ckpt) is not None:
                    break
                if machine.corrupt_watch and machine.corrupt_read_cycle is None:
                    continue
                if chain.scalars(ckpt) != (
                    machine.retired_total,
                    machine._reqid,
                    machine._last_retire_cycle,
                ):
                    continue
                if machine.snapshot() != chain.state_at(ckpt):
                    continue
                watch, read = machine.corrupt_watch, machine.corrupt_read_cycle
                machine.restore(chain.halt_state())
                machine.corrupt_watch, machine.corrupt_read_cycle = watch, read
                break
        return machine.run(hang_factor_cycles=hang_factor_cycles)


@dataclass
class CosimResult:
    """What happened during the co-simulation window."""

    cosim_cycles: int = 0
    vanished: bool = False
    persistent: bool = False
    propagated_cycle: "int | None" = None
    corrupted_words: list[int] = field(default_factory=list)
    residual_at_exit: int = 0
    ended_by: str = ""

    def to_dict(self) -> dict:
        return {
            "cosim_cycles": self.cosim_cycles,
            "vanished": self.vanished,
            "persistent": self.persistent,
            "propagated_cycle": self.propagated_cycle,
            "corrupted_words": list(self.corrupted_words),
            "residual_at_exit": self.residual_at_exit,
            "ended_by": self.ended_by,
        }


@dataclass
class InjectionRun:
    """Complete record of one error-injection run."""

    component: str
    instance: int
    benchmark: str
    injection_cycle: int
    flip_location: tuple[str, int, int]
    warmup: int
    outcome: "Outcome | None"
    persistent: bool
    cosim: CosimResult
    #: error-propagation latency to the cores (Fig. 8), if observed
    propagation_latency: "int | None" = None
    #: required rollback distance (Fig. 9), if memory was corrupted
    rollback_distance: "int | None" = None
    ran_phase3: bool = False
    #: the drawn fault behind this run
    fault_event: "FaultEvent | None" = None

    @property
    def is_erroneous(self) -> bool:
        return self.outcome is not None and self.outcome.is_erroneous

    def to_dict(self) -> dict:
        return {
            "component": self.component,
            "instance": self.instance,
            "benchmark": self.benchmark,
            "injection_cycle": self.injection_cycle,
            "flip_location": list(self.flip_location),
            "warmup": self.warmup,
            "outcome": self.outcome.value if self.outcome else None,
            "persistent": self.persistent,
            "cosim": self.cosim.to_dict(),
            "propagation_latency": self.propagation_latency,
            "rollback_distance": self.rollback_distance,
            "ran_phase3": self.ran_phase3,
            "fault_event": (
                self.fault_event.to_dict() if self.fault_event else None
            ),
        }


def compute_golden(
    machine: Machine,
    cosim: CosimConfig,
    want_pcie_window: bool = False,
    keep_snapshots: bool = True,
) -> GoldenRun:
    """Run a loaded machine to completion as the error-free reference.

    ``keep_snapshots=False`` skips the periodic whole-machine snapshots
    -- the right mode for golden-only experiments that will never
    restore into the run (snapshots dominate the golden run's memory
    and time cost).  Kept snapshots are stored as a delta
    :class:`~repro.system.snapshots.SnapshotChain` (full base + per-Cf
    dirty-state deltas).
    """
    chain = SnapshotChain(machine) if keep_snapshots else None
    drains = None
    if chain is not None:
        chain.checkpoint()
        drains = machine.log_ccx_drains()
    cf = cosim.snapshot_interval
    cap = machine.config.max_cycles
    # obs handles resolved once (null no-ops when disabled); the tracer
    # decision is likewise frozen so the chunk loop stays branch-cheap
    from repro import obs

    chunk_count = obs.counter("golden.chunks")
    chunk_time = obs.timer("golden.chunk_seconds")
    tracer = obs.tracer()
    # One Machine.advance_to_exit call per checkpoint (without
    # snapshots, one call to the exit): the exit rule of Machine.run, so
    # the run ends at the cycle per-cycle stepping would and the event
    # engine keeps its idle hops.  A checkpoint reached is taken before
    # the exits are checked, so a run halting on a multiple of Cf
    # checkpoints that cycle; only "halted" completes the golden run.
    while True:
        start_cycle = machine.cycle
        # first cf multiple strictly after the current cycle
        target = start_cycle + cf - start_cycle % cf if chain is not None else None
        if tracer is None:
            with chunk_time.time():
                end = machine.advance_to_exit(cap, target)
        else:
            with chunk_time.time(), tracer.span(
                "golden_chunk",
                "golden",
                start_cycle=start_cycle,
                target=target,
                engine=machine.engine,
            ):
                end = machine.advance_to_exit(cap, target)
        chunk_count.inc()
        if end is None:
            chain.checkpoint()
        elif end == "halted":
            break
        elif end == "trap":
            raise RuntimeError(f"golden run trapped: {machine.any_trap()}")
        elif end == "cap":
            raise RuntimeError("golden run exceeded the cycle cap")
        else:
            raise RuntimeError("golden run hung")
    machine.ccx_drain_log = None
    if chain is not None:
        chain.finalize()
    machine.obs_flush()
    window = machine.pcie.transfer_window() if want_pcie_window else None
    return GoldenRun(
        cycles=machine.cycle,
        output=dict(machine.output),
        snapshots=chain if chain is not None else {},
        pcie_window=window,
        retired=machine.retired_total,
        program_digest=machine.program_digest,
        ccx_drains=drains,
    )


class MixedModePlatform:
    """Owns one machine + workload and runs injection experiments."""

    def __init__(
        self,
        benchmark: str,
        machine_config: "MachineConfig | None" = None,
        cosim_config: "CosimConfig | None" = None,
        scale: float = 1.0 / 40_000.0,
        seed: int = 2015,
        pcie_input: bool = False,
        image: "WorkloadImage | None" = None,
        engine: str = DEFAULT_ENGINE,
    ) -> None:
        self.benchmark = benchmark
        self.machine_config = (
            machine_config if machine_config is not None else MachineConfig()
        )
        machine_config = self.machine_config
        self.cosim = cosim_config if cosim_config is not None else CosimConfig()
        self.engine = engine
        self.seed = seed
        self.pcie_input = pcie_input
        self.image = image if image is not None else build_workload(
            benchmark, threads=machine_config.total_threads, scale=scale, seed=seed
        )
        self.machine = self._fresh_machine()
        self.golden = self._golden_run()
        #: where the next :meth:`_attach_quiesced` stops waiting (set by
        #: :meth:`prepare`)
        self._quiesce_by: "int | None" = None

    # ------------------------------------------------------------------
    # Golden run (one-time, Sec. 2.2 phase 1 setup)
    # ------------------------------------------------------------------
    def _fresh_machine(self) -> Machine:
        machine = Machine(self.machine_config, engine=self.engine)
        machine.load_workload(self.image, pcie_input=self.pcie_input)
        return machine

    def _golden_run(self) -> GoldenRun:
        return compute_golden(
            self.machine,
            self.cosim,
            want_pcie_window=(
                self.image.input_file_words is not None and self.pcie_input
            ),
        )

    # ------------------------------------------------------------------
    # One injection run (Fig. 2)
    # ------------------------------------------------------------------
    def run_injection(
        self,
        event: FaultEvent,
        warmup: int,
        fault=None,
        cosim_cycle_cap: "int | None" = None,
    ) -> InjectionRun:
        """One injection run (Fig. 2) of a drawn ``event`` after
        ``warmup`` cycles of warm-up.

        ``fault`` is the model that drew the event: it then owns the
        corruption (and, for stuck-at/intermittent faults, its per-cycle
        re-assertion during co-simulation).  Without one the run flips
        the single-bit event's ``params["bit"]`` directly, the inline
        SEU path the fault-overhead guard times its models against.
        """
        cap = cosim_cycle_cap if cosim_cycle_cap is not None else (
            self.cosim.cosim_cycle_cap
        )
        machine = self.machine
        component = event.component
        adapter = self.prepare(component, event.instance, event.cycle, warmup)

        # ---- phase 2: inject and co-simulate ------------------------------
        if fault is not None:
            flip_loc = fault.apply_event(adapter, event)
            live = fault.live(event, machine.cycle)
        else:
            flip_loc = adapter.flip(event.params["bit"])
            live = None
        inject_abs = machine.cycle
        cosim = CosimResult()
        outcome: "Outcome | None" = None
        ran_phase3 = False
        error_touched = False
        check = self.cosim.check_interval
        while True:
            steps = min(check, cap - cosim.cosim_cycles)
            if live is None:
                machine.run_until_cycle(machine.cycle + steps)
            else:
                self._step_with_live_fault(adapter, live, steps)
            cosim.cosim_cycles += steps
            # a trap during co-simulation ends the run immediately
            trap = machine.any_trap()
            if trap is not None:
                outcome = Outcome.UT
                cosim.ended_by = "trap_during_cosim"
                break
            status = adapter.compare()
            if adapter.erroneous_output_cycle is not None:
                cosim.propagated_cycle = adapter.erroneous_output_cycle
            # while a live fault is still asserted (stuck-at hold,
            # intermittent window) the "guaranteed to match" premise of
            # the early exits does not hold: the fault will re-corrupt
            # state, so keep co-simulating until it releases
            fault_held = (
                live is not None and live.next_active_cycle() is not None
            )
            if (
                not fault_held
                and status.residual == 0
                and status.highlevel == 0
                and not status.corrupted_words
                and adapter.erroneous_output_cycle is None
                and not adapter.golden_diverged
            ):
                # no erroneous packet left the component and every
                # remaining mismatch is benign: the run is guaranteed to
                # match the error-free outcome (Fig. 2 steps 8-9)
                cosim.vanished = True
                outcome = Outcome.VANISHED
                cosim.ended_by = "vanished"
                break
            if not fault_held and status.exitable and adapter.quiescent():
                cosim.corrupted_words = list(status.corrupted_words)
                if isinstance(adapter, L2cCosimAdapter):
                    cosim.corrupted_words = sorted(
                        set(cosim.corrupted_words)
                        | set(adapter.cache_corruption_words())
                    )
                cosim.residual_at_exit = status.residual
                error_touched = (
                    bool(cosim.corrupted_words)
                    or adapter.erroneous_output_cycle is not None
                    or adapter.golden_diverged
                    or status.highlevel > 0
                )
                adapter.detach()
                ran_phase3 = True
                cosim.ended_by = "handover"
                break
            if cosim.cosim_cycles >= cap:
                cosim.persistent = True
                cosim.ended_by = "cap"
                break
        if not ran_phase3:
            # abandoned in co-simulation: restore the machine structure
            # (state is rebuilt from a snapshot on the next run anyway)
            adapter.release()

        # ---- phase 3: determine the application outcome --------------------
        if ran_phase3:
            machine.corrupt_watch = set(cosim.corrupted_words)
            machine.corrupt_read_cycle = None
            result = self.golden.finish(machine, self.hang_cap())
            outcome = classify_outcome(result, self.golden.output, error_touched)

        # ---- measurements ----------------------------------------------------
        propagation = None
        if cosim.propagated_cycle is not None:
            propagation = cosim.propagated_cycle - inject_abs
        elif ran_phase3 and machine.corrupt_read_cycle is not None:
            propagation = machine.corrupt_read_cycle - inject_abs
        rollback = None
        if cosim.corrupted_words:
            oldest = min(
                machine.last_store_cycle.get(w, 0) for w in cosim.corrupted_words
            )
            rollback = max(0, inject_abs - oldest)

        return InjectionRun(
            component=component,
            instance=event.instance,
            benchmark=self.benchmark,
            injection_cycle=event.cycle,
            flip_location=flip_loc,
            warmup=warmup,
            outcome=outcome,
            persistent=cosim.persistent,
            cosim=cosim,
            propagation_latency=propagation,
            rollback_distance=rollback,
            ran_phase3=ran_phase3,
            fault_event=event,
        )

    # ------------------------------------------------------------------
    def _step_with_live_fault(self, adapter, live, steps: int) -> None:
        """Advance ``steps`` cycles, firing the live fault when due.

        Mirrors the event engine's active-set idea: the fault reports
        its next assertion cycle and simulation batches up to it, so an
        intermittent fault with a long period costs almost nothing while
        a stuck-at (due every cycle) degrades gracefully to
        cycle-stepping.
        """
        machine = self.machine
        end = machine.cycle + steps
        while machine.cycle < end:
            due = live.next_active_cycle()
            if due is None or due >= end:
                machine.run_until_cycle(end)
                return
            if due > machine.cycle:
                machine.run_until_cycle(due)
            live.fire(adapter, machine.cycle)

    def draw_warmup(self, rng: random.Random) -> int:
        """A warm-up period: ``warmup_min + U[0, warmup_jitter)``."""
        jitter = self.cosim.warmup_jitter
        return self.cosim.warmup_min + (rng.randrange(jitter) if jitter else 0)

    def hang_cap(self) -> int:
        """Phase 3's cycle budget: a run past it is classified a hang."""
        return int(self.golden.cycles * self.cosim.hang_factor) + 50_000

    # ------------------------------------------------------------------
    def prepare(
        self,
        component: str,
        instance: int,
        injection_cycle: int,
        warmup: int,
        build=None,
    ):
        """Phase 1 (Fig. 2): restore the golden snapshot preceding
        ``injection_cycle``, fast-forward to it, quiesce the target and
        attach its RTL (see :meth:`_attach_quiesced` for ``build``), then
        warm up for ``warmup`` cycles.  Returns the attached adapter or
        server; every injection, QRR and persistence run starts here.

        Until the attach the machine holds only high-level models
        restored from the golden chain, so it replays the golden run.
        A crossbar target's quiesce wait is therefore read from the
        golden run's drain log (:meth:`GoldenRun.ccx_quiesced`) rather
        than stepped: the machine restores the checkpoint at or before
        the attach boundary and fast-forwards to it, where
        :meth:`_attach_quiesced` finds nothing left to wait for.  The
        attach cycle and machine state are those of the stepped wait.
        """
        machine = self.machine
        golden = self.golden
        limit = self.cosim.quiesce_limit
        start = injection_cycle
        if component == "ccx":
            attach = golden.ccx_quiesced(injection_cycle, limit)
            if attach is not None:
                start = attach
        _cycle, snap = golden.snapshot_at_or_before(start)
        machine.restore(snap)
        machine.run_until_cycle(start)
        self._quiesce_by = injection_cycle + limit
        if build is None:  # the two-argument call, which tests wrap
            adapter = self._attach_quiesced(component, instance)
        else:
            adapter = self._attach_quiesced(component, instance, build)
        machine.run_until_cycle(machine.cycle + warmup)
        return adapter

    def _attach_quiesced(self, component: str, instance: int, build=None):
        """Wait for the target component to go idle, then swap in the RTL
        that ``build(machine, component, instance)`` returns (default:
        the co-simulation adapter; QRR passes its protected servers).

        The wait, the definition of quiesce, steps the machine one cycle
        at a time until :meth:`Machine.drained` holds or the cycle
        :meth:`prepare` set (``quiesce_limit`` past the injection cycle;
        past the current cycle on a direct call) is reached, and then
        attaches anyway.  The DMA engine does not wait (it is attached
        mid-transfer).
        """
        machine = self.machine
        until, self._quiesce_by = self._quiesce_by, None
        if until is None:
            until = machine.cycle + self.cosim.quiesce_limit
        if component != "pcie":
            while machine.cycle < until and not machine.drained(component, instance):
                machine.step()
        if build is None:
            # looked up per call, not bound as a default: profilers wrap
            # the module-level name
            build = make_adapter
        adapter = build(machine, component, instance)
        adapter.attach()
        return adapter
