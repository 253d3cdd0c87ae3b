"""Error-propagation latency analysis (paper Sec. 5.1, Fig. 8).

Software- or architecture-level detection (EDDI, RMT) can see an uncore
error only once a core receives an erroneous value; the detection latency
is therefore bounded below by the propagation latency measured here: the
cycles from the flip until either an erroneous return packet reaches the
cores or a core first loads a corrupted memory word.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.utils.cdf import Cdf


@dataclass
class PropagationAnalysis:
    """Aggregates propagation-latency samples into the Fig. 8 CDF."""

    component: str
    samples: list[int] = field(default_factory=list)

    @classmethod
    def from_runs(cls, component: str, runs: Iterable) -> "PropagationAnalysis":
        """Samples from any runs carrying ``propagation_latency``
        (live ``InjectionRun``s or canonical ``RunRecord``s); runs
        without one are skipped."""
        return cls(
            component,
            [
                r.propagation_latency
                for r in runs
                if r.propagation_latency is not None
            ],
        )

    def cdf(self) -> Cdf:
        return Cdf(self.samples)

    def decade_series(self, max_exponent: int = 9) -> list[tuple[float, float]]:
        """Fig. 8 series: x -> fraction of propagating errors with
        latency <= x cycles."""
        return self.cdf().at_decades(max_exponent)

    @property
    def mean(self) -> float:
        """Average propagation latency (paper: 36M cycles for L2C at
        full scale; scales with the workload scale factor)."""
        if not self.samples:
            raise ValueError("no propagation samples")
        return sum(self.samples) / len(self.samples)

    def fraction_beyond(self, cycles: float) -> float:
        return self.cdf().fraction_greater(cycles)
