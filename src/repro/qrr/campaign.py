"""QRR effectiveness campaign (paper Sec. 6.4).

Injects bit flips into parity-covered flip-flops of a QRR-protected L2C
or MCU instance and verifies that the application still completes with
the correct output -- the paper reports successful recovery for *all*
such injections (>400,000 runs at full scale).  Hardened flip-flops are
handled analytically via :func:`repro.qrr.coverage.improvement_factor`.

Every random choice of a run -- instance, injection cycle, warm-up and
the flipped parity-covered bit -- is drawn by :meth:`QrrCampaign.draws`
from the platform's fixed state alone (the covered bits come from the
component's sampling prototype), so the run itself sees no random
stream.
"""

from __future__ import annotations

import random
from itertools import islice
from typing import Iterator

from repro.faults.inventory import prototype_module
from repro.mixedmode.platform import MixedModePlatform
from repro.qrr.coverage import covered_bits
from repro.qrr.servers import QrrL2cServer, QrrMcuServer


class QrrCampaign:
    """Runs QRR-protected injections on top of a mixed-mode platform."""

    def __init__(self, platform: MixedModePlatform, component: str) -> None:
        if component not in ("l2c", "mcu"):
            raise ValueError("QRR protects the memory-subsystem components")
        self.platform = platform
        self.component = component

    def draws(self, seed: int = 0) -> Iterator[tuple[int, int, int, int]]:
        """The ``(instance, cycle, warmup, bit)`` draws, run by run,
        without end; drawn lazily, like :meth:`InjectionCampaign.draws
        <repro.injection.campaign.InjectionCampaign.draws>`."""
        plat = self.platform
        rng = random.Random(seed)
        instances = plat.machine_config.instances(self.component)
        covered = covered_bits(prototype_module(plat, self.component))
        while True:
            instance = rng.randrange(instances)
            cycle = rng.randrange(1, max(2, plat.golden.cycles - 1))
            warmup = plat.draw_warmup(rng)
            yield instance, cycle, warmup, covered[rng.randrange(len(covered))]

    def run(self, n_injections: int, seed: int = 0) -> "list[RunRecord]":
        """One canonical run record per injection."""
        # imported here: repro.api's session imports this module
        from repro.api.result import RunRecord

        records = []
        draws = islice(self.draws(seed), n_injections)
        for index, (instance, cycle, warmup, bit) in enumerate(draws):
            recovered, recovery_cycles, detected = self._one_run(
                instance, cycle, warmup, bit
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

    def _one_run(self, instance: int, cycle: int, warmup: int, bit: int):
        plat = self.platform
        machine = plat.machine
        # the QRR-protected RTL server stands in for the component; the
        # warm-up fills its record table with live in-flight requests
        server = plat.prepare(
            self.component, instance, cycle, warmup, build=_build_server
        )
        # flip a parity-covered bit; detection fires the same cycle
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
