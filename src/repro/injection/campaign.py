"""Injection campaigns over (component x benchmark) cells (Fig. 3).

A campaign runs N independent injections through the mixed-mode platform
and returns one live :class:`~repro.mixedmode.platform.InjectionRun` per
injection.  Every random choice of a run -- the fault event (injection
point and flipped location) and the randomized warm-up -- is drawn by
:meth:`InjectionCampaign.draws` from the platform's fixed state alone,
so a cell's runs are a pure function of its spec and no run driver sees
a random stream.  Aggregation into the five outcome categories happens
once, on the canonical :class:`~repro.api.result.ExperimentResult` the
session builds from these runs.
"""

from __future__ import annotations

import random
import zlib
from itertools import islice
from typing import Iterator

from repro.faults.event import FaultEvent
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

    def draws(self) -> Iterator[tuple[FaultEvent, int]]:
        """The cell's ``(event, warmup)`` draws, run by run, without end.

        They read only the platform's fixed state (golden length, PCIe
        window, RTL prototypes), so they need no simulation.  Drawn
        lazily: a run's draws are taken just before it starts, not all
        up front.
        """
        # stable digest, NOT hash(): str hashes vary across interpreter
        # runs under PYTHONHASHSEED randomization, which would make
        # campaigns unreproducible across processes
        rng = random.Random(
            (self.seed << 16) ^ (zlib.crc32(self.component.encode()) & 0xFFFF)
        )
        platform = self.platform
        while True:
            event = self.fault.sample_event(platform, self.component, rng)
            yield event, platform.draw_warmup(rng)

    def run(self, n_injections: int) -> list[InjectionRun]:
        return [
            self.platform.run_injection(event, warmup, fault=self.fault)
            for event, warmup in islice(self.draws(), n_injections)
        ]
