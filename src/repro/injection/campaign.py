"""Injection campaigns over (component x benchmark) cells (Fig. 3).

A campaign runs N independent injections through the mixed-mode platform
and returns one live :class:`~repro.mixedmode.platform.InjectionRun` per
injection.  Aggregation into the five outcome categories happens once,
on the canonical :class:`~repro.api.result.ExperimentResult` the session
builds from these runs.
"""

from __future__ import annotations

import random
import zlib

from repro.faults.models import FaultModel, SingleBitFlip
from repro.mixedmode.platform import InjectionRun, MixedModePlatform


class InjectionCampaign:
    """Runs one (component, benchmark) campaign cell.

    ``fault`` selects the fault model (defaults to the paper's
    single-bit TARGET-flip-flop flip, bit-identical to the
    pre-subsystem behaviour).
    """

    def __init__(
        self,
        platform: MixedModePlatform,
        component: str,
        seed: int = 0,
        fault: "FaultModel | None" = None,
    ) -> None:
        self.platform = platform
        self.component = component
        self.seed = seed
        self.fault = fault if fault is not None else SingleBitFlip()

    def run(self, n_injections: int) -> list[InjectionRun]:
        # stable digest, NOT hash(): str hashes vary across interpreter
        # runs under PYTHONHASHSEED randomization, which would make
        # campaigns unreproducible across processes
        rng = random.Random(
            (self.seed << 16) ^ (zlib.crc32(self.component.encode()) & 0xFFFF)
        )
        runs = []
        for _ in range(n_injections):
            event = self.fault.sample_event(self.platform, self.component, rng)
            runs.append(
                self.platform.run_injection(
                    self.component,
                    event.cycle,
                    instance=event.instance,
                    rng=rng,
                    fault=self.fault,
                    event=event,
                )
            )
        return runs
