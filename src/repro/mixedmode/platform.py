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
from dataclasses import dataclass, field

from repro.faults.event import FaultEvent
from repro.faults.models import SingleBitFlip
from repro.mixedmode.adapters import (
    CosimAdapterBase,
    L2cCosimAdapter,
    make_adapter,
)
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
        quiesce_limit: bound on waiting for the component to go idle.
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
    """

    cycles: int
    output: dict[int, int]
    snapshots: "dict[int, dict] | SnapshotChain"
    pcie_window: "tuple[int, int] | None" = None
    retired: int = 0

    def snapshot_at_or_before(self, cycle: int) -> tuple[int, dict]:
        best = 0
        for c in self.snapshots:
            if c <= cycle and c >= best:
                best = c
        return best, self.snapshots[best]

    def finish(self, machine: Machine, hang_factor_cycles: int) -> RunResult:
        """Phase 3: ``machine.run(hang_factor_cycles=...)`` with an exact
        early stop once the machine re-converges with the golden run.

        The machine advances checkpoint to checkpoint.  At each golden
        checkpoint whose stored scalars (retired count, request id, last
        retire cycle) equal the machine's, the whole machine snapshot is
        compared with the checkpoint.  On equality the rest of the run
        can only replay the golden run, so the machine jumps to the
        golden halt state (:meth:`SnapshotChain.halt_state`: every
        thread halted, uncore not yet drained) and ``machine.run``
        drains the uncore from there.  The result, the final machine
        state and the next run are those of full simulation.

        * A chunk never crosses the cycle at which the watchdog fires;
          trap, hang and completion exits are left to ``machine.run``,
          so they happen at the same cycle.  The cycle cap cannot fire
          before the last checkpoint: with a cap below the golden length
          there is no jump to make.
        * No jump while a corrupted word is watched but not yet read (a
          later read still sets the propagation cycle); the watch fields
          survive the jump.

        ``machine`` must run the configuration the golden run ran on
        (the watchdog that never fired there is the one checked here).
        """
        chain = self.snapshots
        cap = min(machine.config.max_cycles, hang_factor_cycles)
        if isinstance(chain, SnapshotChain) and self.cycles <= cap:
            watchdog = machine.config.watchdog_cycles
            for ckpt in chain:
                if ckpt < machine.cycle:
                    continue
                if not _advance_before_exit(machine, ckpt, watchdog):
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


def _advance_before_exit(machine: Machine, target: int, watchdog: int) -> bool:
    """Advance to ``target`` unless a run exit comes first.

    Returns False, with the machine at the exit cycle, when a thread
    trapped, every thread halted or the watchdog fires (as
    :meth:`Machine.run` checks them) before ``target``.
    """
    while True:
        if machine._trapped_threads or machine._live_threads == 0:
            return False
        if machine.cycle >= target:
            return True
        limit = machine._last_retire_cycle + watchdog + 1
        if machine.cycle >= limit:
            return False
        machine.advance_until(target if target < limit else limit)


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

    @classmethod
    def from_dict(cls, data: dict) -> "CosimResult":
        return cls(
            cosim_cycles=data.get("cosim_cycles", 0),
            vanished=data.get("vanished", False),
            persistent=data.get("persistent", False),
            propagated_cycle=data.get("propagated_cycle"),
            corrupted_words=list(data.get("corrupted_words", ())),
            residual_at_exit=data.get("residual_at_exit", 0),
            ended_by=data.get("ended_by", ""),
        )


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
    #: the sampled fault behind this run (None for legacy direct calls)
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

    @classmethod
    def from_dict(cls, data: dict) -> "InjectionRun":
        fault = data.get("fault_event")
        outcome = data.get("outcome")
        return cls(
            component=data["component"],
            instance=data.get("instance", 0),
            benchmark=data.get("benchmark", ""),
            injection_cycle=data["injection_cycle"],
            flip_location=tuple(data["flip_location"]),
            warmup=data.get("warmup", 0),
            outcome=Outcome(outcome) if outcome is not None else None,
            persistent=data.get("persistent", False),
            cosim=CosimResult.from_dict(data.get("cosim", {})),
            propagation_latency=data.get("propagation_latency"),
            rollback_distance=data.get("rollback_distance"),
            ran_phase3=data.get("ran_phase3", False),
            fault_event=FaultEvent.from_dict(fault) if fault else None,
        )


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
    if chain is not None:
        chain.checkpoint()
    cf = cosim.snapshot_interval
    watchdog = machine.config.watchdog_cycles
    cap = machine.config.max_cycles
    # obs handles resolved once (null no-ops when disabled); the tracer
    # decision is likewise frozen so the chunk loop stays branch-cheap
    from repro import obs

    chunk_count = obs.counter("golden.chunks")
    chunk_time = obs.timer("golden.chunk_seconds")
    tracer = obs.tracer()
    # Advance checkpoint-to-checkpoint via Machine.advance_until: the
    # O(1) termination checks run between chunks (the early-stop cycle
    # is exact, so successful runs are bit-identical to per-cycle
    # stepping) and the event engine keeps its idle hops.
    # The watchdog bound caps each chunk so a hung run still raises at
    # the same cycle the per-cycle loop would have.
    while True:
        if machine._live_threads == 0:
            break
        if machine._trapped_threads:
            raise RuntimeError(f"golden run trapped: {machine.any_trap()}")
        if machine.cycle >= cap:
            raise RuntimeError("golden run exceeded the cycle cap")
        if machine.cycle - machine._last_retire_cycle > watchdog:
            raise RuntimeError("golden run hung")
        target = machine._last_retire_cycle + watchdog + 1
        if cap < target:
            target = cap
        if chain is not None:
            # first cf multiple strictly after the current cycle
            next_ckpt = machine.cycle + cf - machine.cycle % cf
            if next_ckpt < target:
                target = next_ckpt
        start_cycle = machine.cycle
        if tracer is None:
            with chunk_time.time():
                done = machine.advance_until(target)
        else:
            with chunk_time.time(), tracer.span(
                "golden_chunk",
                "golden",
                start_cycle=start_cycle,
                target=target,
                engine=machine.engine,
            ):
                done = machine.advance_until(target)
        chunk_count.inc()
        if done:
            if chain is not None and machine.cycle % cf == 0:
                chain.checkpoint()
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
    # Injection-point sampling
    # ------------------------------------------------------------------
    def sample_injection_point(
        self, component: str, rng: random.Random
    ) -> tuple[int, int, int]:
        """Random (injection_cycle, instance, target_bit) for a component.

        Delegates to the default fault model: the component-aware window
        rules (PCIe injections fall inside the DMA transfer window, the
        paper models PCIe transferring the input file) live in
        :mod:`repro.faults.windows` now, so the platform no longer
        branches on component names here.
        """
        event = SingleBitFlip().sample(self, component, rng)
        return event.cycle, event.instance, event.params["bit"]

    # ------------------------------------------------------------------
    # One injection run (Fig. 2)
    # ------------------------------------------------------------------
    def run_injection(
        self,
        component: str,
        injection_cycle: int,
        target_bit: "int | None" = None,
        instance: int = 0,
        warmup: "int | None" = None,
        rng: "random.Random | None" = None,
        cosim_cycle_cap: "int | None" = None,
        fault=None,
        event: "FaultEvent | None" = None,
    ) -> InjectionRun:
        """One injection run (Fig. 2).

        The legacy form passes an explicit ``target_bit`` (the default
        single-bit flip).  The fault-model form passes a ``fault`` model
        plus the ``event`` it sampled; the model then owns the
        corruption (and, for stuck-at/intermittent faults, its per-cycle
        re-assertion during co-simulation).
        """
        if fault is None and target_bit is None:
            raise ValueError("run_injection needs a target_bit or a fault+event")
        if fault is not None and event is None:
            raise ValueError("run_injection with a fault model needs its event")
        if rng is None:
            rng = random.Random(
                (target_bit if target_bit is not None else 0) * 1_000_003
            )
        cap = cosim_cycle_cap if cosim_cycle_cap is not None else (
            self.cosim.cosim_cycle_cap
        )
        if warmup is None:
            warmup = self.cosim.warmup_min + (
                rng.randrange(self.cosim.warmup_jitter)
                if self.cosim.warmup_jitter
                else 0
            )
        machine = self.machine

        # ---- phase 1: restore, fast-forward, quiesce, attach, warm up ----
        _snap_cycle, snap = self.golden.snapshot_at_or_before(injection_cycle)
        machine.restore(snap)
        machine.run_until_cycle(injection_cycle)
        adapter = self._attach_quiesced(component, instance)
        machine.run_until_cycle(machine.cycle + warmup)

        # ---- phase 2: inject and co-simulate ------------------------------
        if fault is not None:
            flip_loc = fault.apply_event(adapter, event)
            live = fault.live(event, machine.cycle)
        else:
            flip_loc = adapter.flip(target_bit)
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
            hang_cap = int(self.golden.cycles * self.cosim.hang_factor) + 50_000
            result = self.golden.finish(machine, hang_cap)
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
            instance=instance,
            benchmark=self.benchmark,
            injection_cycle=injection_cycle,
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

    # ------------------------------------------------------------------
    def _attach_quiesced(self, component: str, instance: int) -> CosimAdapterBase:
        """Wait for the target component to go idle, then swap in the RTL."""
        machine = self.machine
        if component != "pcie":  # the DMA engine is attached mid-transfer
            for _ in range(self.cosim.quiesce_limit):
                if self._component_idle(component, instance):
                    break
                machine.step()
        adapter = make_adapter(machine, component, instance)
        adapter.attach()
        return adapter

    def _component_idle(self, component: str, instance: int) -> bool:
        machine = self.machine
        if component == "l2c":
            mcu_idx = machine.amap.mcu_of_bank(instance)
            return (
                machine.l2banks[instance].in_flight() == 0
                and not machine._bank_ingress[instance]
                and machine.mcus[mcu_idx].in_flight() == 0
                and not machine._mcu_ingress[mcu_idx]
            )
        if component == "mcu":
            return (
                machine.mcus[instance].in_flight() == 0
                and not machine._mcu_ingress[instance]
            )
        if component == "ccx":
            return machine.ccx.in_flight() == 0
        return True
