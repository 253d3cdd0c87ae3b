"""Per-flip-flop error-persistence measurement (paper Fig. 6).

For a sample of target flip-flops, inject once into each and measure how
long a *residual* mismatch (one that neither is benign nor maps to
high-level state) survives in the target component.  Fig. 6 plots, per
component, the fraction of flip-flops whose errors persist beyond a
given co-simulation length; Sec. 4.2 uses it to justify the 100K-cycle
cap.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.faults.event import FaultEvent
from repro.faults.models import SingleBitFlip
from repro.mixedmode.platform import MixedModePlatform
from repro.utils.cdf import Cdf


@dataclass
class PersistenceResult:
    """Persistence samples for one component."""

    component: str
    #: cycles until the residual mismatch cleared, per probed flip-flop;
    #: capped probes record the cap value (right-censored)
    samples: list[int] = field(default_factory=list)
    cap: int = 0

    def fraction_persisting_beyond(self, cycles: float) -> float:
        if not self.samples:
            return 0.0
        return sum(1 for s in self.samples if s > cycles) / len(self.samples)

    def decade_series(self, max_exponent: int = 6) -> list[tuple[float, float]]:
        """The Fig. 6 series: x -> fraction of FFs persisting beyond x."""
        return [
            (float(10**e), self.fraction_persisting_beyond(float(10**e)))
            for e in range(1, max_exponent + 1)
        ]

    def cdf(self) -> Cdf:
        return Cdf(self.samples)


class PersistenceProbe:
    """Measures per-flip-flop persistence on a mixed-mode platform."""

    def __init__(self, platform: MixedModePlatform, component: str) -> None:
        self.platform = platform
        self.component = component

    def probe_one(self, event: FaultEvent, cap: int) -> int:
        """Cycles until no residual mismatch remains (or ``cap``) after
        the single-bit flip ``event``."""
        plat = self.platform
        machine = plat.machine
        adapter = plat.prepare(
            self.component, event.instance, event.cycle, plat.cosim.warmup_min
        )
        adapter.flip(event.params["bit"])
        elapsed = 0
        check = plat.cosim.check_interval
        persisted = cap
        while elapsed < cap:
            steps = min(check, cap - elapsed)
            machine.run_until_cycle(machine.cycle + steps)
            elapsed += steps
            if machine.any_trap() is not None:
                break
            status = adapter.compare()
            if status.residual == 0:
                persisted = elapsed
                break
        adapter.release()
        return persisted

    def run(
        self, n_flip_flops: int, cap: int = 20_000, seed: int = 0
    ) -> PersistenceResult:
        rng = random.Random(seed ^ 0x5151)
        model = SingleBitFlip()
        result = PersistenceResult(self.component, cap=cap)
        for _ in range(n_flip_flops):
            event = model.sample(self.platform, self.component, rng)
            result.samples.append(self.probe_one(event, cap))
        return result
