"""Warm-up convergence experiment (paper Sec. 4.1, Fig. 5).

Compares the microarchitectural state of a *mixed-mode* RTL instance
(attached mid-run with only the architected/high-level state transferred,
everything else at reset) against a *full-co-simulation* instance that
has been running at RTL since cycle 0 and receives the identical input
stream.  The fraction of differing flip-flop bits, as a function of
cycles since attach, is the Fig. 5 curve: it decays to a small residual
within the warm-up period, which justifies injecting only after warm-up.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.mem.l2state import L2BankState
from repro.soc.packets import CpxPacket, McuReply, PcxPacket
from repro.system.machine import Machine, MachineConfig
from repro.uncore.l2c import L2cRtl
from repro.workloads import build_workload


class _FullCosimBank:
    """An L2C bank simulated at RTL from cycle 0, with an optional
    cold-attached shadow instance fed the same inputs."""

    def __init__(self, machine: Machine, bank: int) -> None:
        self.machine = machine
        self.bank = bank
        self.live = L2cRtl(
            bank, machine.amap, machine.config.l2_ways, send_mcu=machine._send_mcu
        )
        self.live.load_state(machine.l2states[bank])
        self.shadow: "L2cRtl | None" = None

    def attach_shadow(self) -> None:
        """Cold-attach the mixed-mode instance: architected state only."""
        arch = L2BankState(self.bank, self.machine.amap, self.machine.config.l2_ways)
        self.live.extract_state(arch)
        self.shadow = L2cRtl(
            self.bank,
            self.machine.amap,
            self.machine.config.l2_ways,
            send_mcu=lambda req: None,  # shadow requests are not serviced
        )
        self.shadow.load_state(arch)

    # -- machine server interface ----------------------------------------
    def accept(self, pkt: PcxPacket, cycle: int) -> bool:
        ok = self.live.accept(pkt, cycle)
        if ok and self.shadow is not None:
            self.shadow.accept(pkt, cycle)
        return ok

    def deliver_mcu_reply(self, reply: McuReply) -> None:
        self.live.deliver_mcu_reply(reply)
        if self.shadow is not None:
            self.shadow.deliver_mcu_reply(reply)

    def tick(self, cycle: int) -> list[CpxPacket]:
        out = self.live.tick(cycle)
        if self.shadow is not None:
            self.shadow.tick(cycle)
        return out

    def in_flight(self) -> int:
        return self.live.in_flight()

    def dma_update(self, addr: int, value: int) -> None:
        self.live.dma_update(addr, value)
        if self.shadow is not None:
            self.shadow.dma_update(addr, value)

    # -- measurement ---------------------------------------------------------
    def microarch_diff_fraction(self) -> float:
        """Fraction of flip-flop bits that *meaningfully* differ.

        Counts bits of non-benign flip-flop mismatches between the
        cold-attached instance and the always-RTL instance: occupancy
        counters, pointers, valid bits, and the fields of occupied
        entries.  Mismatches the benignity rules prove inert (stale
        contents of invalid queue slots, performance/debug trackers) are
        excluded -- they are bookkeeping left over from before the
        attach, not state the warm-up must restore.  The residual floor
        comes from ring-pointer offsets, which never re-align but are
        rotation-invariant.
        """
        if self.shadow is None:
            raise ValueError("shadow not attached")
        from repro.rtl.compare import MismatchKind

        diff = 0
        for m in self.live.compare(self.shadow):
            if m.kind is MismatchKind.FLIP_FLOP and not self.live.is_mismatch_benign(m):
                diff += m.bit_count
        return diff / self.live.flip_flop_count()


@dataclass
class WarmupResult:
    """Averaged microarchitectural difference per warm-up cycle."""

    horizon: int
    runs: int
    #: index w -> mean fraction of differing flip-flop bits after w cycles
    mean_diff: list[float] = field(default_factory=list)

    def diff_after(self, cycles: int) -> float:
        return self.mean_diff[min(cycles, self.horizon - 1)]

    def series(self, points: int = 11) -> list[tuple[float, float]]:
        """Down-sampled Fig. 5 series."""
        step = max(1, self.horizon // max(1, points - 1))
        xs = list(range(0, self.horizon, step))
        if xs[-1] != self.horizon - 1:
            xs.append(self.horizon - 1)
        return [(float(x), self.mean_diff[x]) for x in xs]


class WarmupExperiment:
    """Runs the Fig. 5 measurement for the L2C."""

    def __init__(
        self,
        benchmark: str = "fft",
        machine_config: MachineConfig = MachineConfig(cores=4, threads_per_core=2),
        scale: float = 1.0 / 200_000.0,
        seed: int = 2015,
    ) -> None:
        self.benchmark = benchmark
        self.machine_config = machine_config
        self.scale = scale
        self.seed = seed

    def run(self, runs: int = 10, horizon: int = 1000) -> WarmupResult:
        rng = random.Random(self.seed)
        totals = [0.0] * horizon
        image = build_workload(
            self.benchmark,
            threads=self.machine_config.total_threads,
            scale=self.scale,
            seed=self.seed,
        )
        for _run in range(runs):
            attach_at = rng.randrange(400, 2000)
            # probe run: find the bank with the most traffic by attach time
            probe = Machine(self.machine_config)
            probe.load_workload(image)
            probe.run_until_cycle(attach_at)
            bank = max(
                range(self.machine_config.l2_banks),
                key=lambda b: probe.l2banks[b].hits + probe.l2banks[b].misses,
            )
            machine = Machine(self.machine_config)
            machine.load_workload(image)
            server = _FullCosimBank(machine, bank)
            machine.swap("l2c", bank, server)
            machine.run_until_cycle(attach_at)
            # sample a busy instant: at the paper's 64-thread scale the
            # bank is essentially always mid-operation when co-simulation
            # attaches, which is exactly what warm-up must reconstruct
            for _ in range(5_000):
                if server.live.in_flight() >= 2:
                    break
                machine.step()
            server.attach_shadow()
            for w in range(horizon):
                machine.step()
                totals[w] += server.microarch_diff_fraction()
        return WarmupResult(
            horizon=horizon,
            runs=runs,
            mean_diff=[t / runs for t in totals],
        )
