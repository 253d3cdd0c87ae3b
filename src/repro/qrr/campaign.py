"""QRR effectiveness campaign (paper Sec. 6.4).

Injects bit flips into parity-covered flip-flops of a QRR-protected L2C
or MCU instance and verifies that the application still completes with
the correct output -- the paper reports successful recovery for *all*
such injections (>400,000 runs at full scale).  Hardened flip-flops are
handled analytically via :func:`repro.qrr.coverage.improvement_factor`.
"""

from __future__ import annotations

import random

from repro.mixedmode.platform import MixedModePlatform
from repro.qrr.servers import QrrL2cServer, QrrMcuServer
from repro.rtl.registers import FlipFlopClass


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

    def run(self, n_injections: int, seed: int = 0) -> "list[RunRecord]":
        """One canonical run record per injection."""
        # imported here: repro.api's session imports this module
        from repro.api.result import RunRecord

        plat = self.platform
        rng = random.Random(seed)
        records = []
        for index in range(n_injections):
            instance = rng.randrange(plat.machine_config.instances(self.component))
            cycle = rng.randrange(1, max(2, plat.golden.cycles - 1))
            recovered, recovery_cycles, detected = self._one_run(
                instance, cycle, rng
            )
            records.append(
                RunRecord(
                    index=index,
                    instance=instance,
                    injection_cycle=cycle,
                    detected=bool(detected),
                    recovered=recovered,
                    recovery_cycles=list(recovery_cycles),
                )
            )
        return records

    def _one_run(self, instance: int, cycle: int, rng):
        plat = self.platform
        machine = plat.machine
        # warm up so the record table holds live in-flight requests
        warmup = plat.draw_warmup(rng)
        # the QRR-protected RTL server stands in for the component
        server = plat.prepare(
            self.component, instance, cycle, warmup, build=_build_server
        )
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
