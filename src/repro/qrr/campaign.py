"""QRR effectiveness campaign (paper Sec. 6.4).

Injects bit flips into parity-covered flip-flops of a QRR-protected L2C
or MCU instance and verifies that the application still completes with
the correct output -- the paper reports successful recovery for *all*
such injections (>400,000 runs at full scale).  Hardened flip-flops are
handled analytically via :func:`repro.qrr.coverage.improvement_factor`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.mixedmode.platform import MixedModePlatform
from repro.qrr.servers import QrrL2cServer, QrrMcuServer
from repro.rtl.registers import FlipFlopClass


@dataclass
class QrrRun:
    """Record of one QRR-protected injection run."""

    instance: int
    injection_cycle: int
    detected: bool
    recovered: bool
    recovery_cycles: list[int] = field(default_factory=list)


@dataclass
class QrrCampaignResult:
    """Aggregate of one QRR injection campaign."""

    component: str
    benchmark: str
    injections: int = 0
    detected: int = 0
    recovered: int = 0
    failures: list[tuple] = field(default_factory=list)
    recovery_cycles: list[int] = field(default_factory=list)
    runs: list[QrrRun] = field(default_factory=list)

    @property
    def max_recovery_cycles(self) -> int:
        return max(self.recovery_cycles, default=0)


class QrrCampaign:
    """Runs QRR-protected injections on top of a mixed-mode platform."""

    def __init__(self, platform: MixedModePlatform, component: str) -> None:
        if component not in ("l2c", "mcu"):
            raise ValueError("QRR protects the memory-subsystem components")
        self.platform = platform
        self.component = component
        self._covered: "list[int] | None" = None

    def _covered_bits(self, server) -> list[int]:
        """Indices of parity-covered target bits (detection candidates),
        in ``target_bits()`` order.

        Built once per campaign by walking the target registers' sizes
        (every run attaches the same RTL class), so a run never
        materializes the target index.
        """
        if self._covered is None:
            covered: list[int] = []
            offset = 0
            for reg in server.rtl.registers().values():
                if reg.ff_class is not FlipFlopClass.TARGET:
                    continue
                size = reg.flip_flops
                if not reg.timing_critical and not reg.config:
                    covered.extend(range(offset, offset + size))
                offset += size
            self._covered = covered
        return self._covered

    def run(self, n_injections: int, seed: int = 0) -> QrrCampaignResult:
        plat = self.platform
        result = QrrCampaignResult(self.component, plat.benchmark)
        rng = random.Random(seed)
        for _ in range(n_injections):
            if self.component == "l2c":
                instance = rng.randrange(plat.machine_config.l2_banks)
            else:
                instance = rng.randrange(plat.machine_config.mcus)
            cycle = rng.randrange(1, max(2, plat.golden.cycles - 1))
            run_ok, rec_cycles, detected = self._one_run(instance, cycle, rng)
            result.injections += 1
            result.detected += int(detected)
            if run_ok:
                result.recovered += 1
            else:
                result.failures.append((instance, cycle))
            result.recovery_cycles.extend(rec_cycles)
            result.runs.append(
                QrrRun(instance, cycle, bool(detected), run_ok, list(rec_cycles))
            )
        return result

    def _one_run(self, instance: int, cycle: int, rng):
        plat = self.platform
        machine = plat.machine
        _snap_cycle, snap = plat.golden.snapshot_at_or_before(cycle)
        machine.restore(snap)
        machine.run_until_cycle(cycle)
        # quiesce the component, then swap in the QRR-protected RTL server
        server = plat._attach_quiesced(
            self.component, instance, build=_build_server
        )
        # warm up so the record table holds live in-flight requests
        warmup = plat.cosim.warmup_min + rng.randrange(
            max(1, plat.cosim.warmup_jitter)
        )
        machine.run_until_cycle(machine.cycle + warmup)
        # flip a parity-covered bit; detection fires the same cycle
        covered = self._covered_bits(server)
        bit = covered[rng.randrange(len(covered))]
        _reg, _entry, _b, detected = server.inject(bit, machine.cycle)
        # run through recovery until the component is quiescent again
        for _ in range(50_000):
            machine.step()
            if (
                not server.recovering
                and server.in_flight() == 0
                and not machine.has_trap()
            ):
                break
        server.detach()
        if machine.any_trap() is not None:
            return False, server.recovery_cycles_log, detected
        final = plat.golden.finish(machine, plat.hang_cap())
        ok = (
            final.completed
            and final.trap is None
            and final.output == plat.golden.output
        )
        return ok, server.recovery_cycles_log, detected


def _build_server(machine, component: str, instance: int):
    """The QRR-protected RTL server for an L2C bank or MCU."""
    if component == "l2c":
        return QrrL2cServer(machine, instance)
    return QrrMcuServer(machine, instance)
