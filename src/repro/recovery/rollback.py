"""Required-rollback-distance analysis (paper Sec. 5.2, Fig. 9).

Incremental checkpointing logs only the memory locations processor cores
modified between checkpoints.  An address-related uncore error can
corrupt a location *outside* that log, so correct recovery must roll
back to a checkpoint older than the last (error-free) modification of
the corrupted location.  The required distance for one error is

    injection_cycle - min over corrupted words of last_store_cycle(word)

(zero-store words force a rollback to the beginning of the run).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from repro.utils.cdf import Cdf


@dataclass
class RollbackAnalysis:
    """Aggregates rollback-distance samples into the Fig. 9 CDF."""

    component: str
    samples: list[int] = field(default_factory=list)

    @classmethod
    def from_runs(cls, component: str, runs: Iterable) -> "RollbackAnalysis":
        """Samples from any runs carrying ``rollback_distance``
        (live ``InjectionRun``s or canonical ``RunRecord``s); runs
        without one are skipped."""
        return cls(
            component,
            [
                r.rollback_distance
                for r in runs
                if r.rollback_distance is not None
            ],
        )

    def cdf(self) -> Cdf:
        return Cdf(self.samples)

    def decade_series(self, max_exponent: int = 9) -> list[tuple[float, float]]:
        """Fig. 9 series: x -> fraction of memory-corrupting errors whose
        required rollback distance is <= x cycles."""
        return self.cdf().at_decades(max_exponent)

    def distance_for_coverage(self, coverage: float) -> float:
        """Rollback distance needed to cover a fraction of errors.

        The paper reports >400M cycles (full scale) for 99% coverage.
        """
        if not self.samples:
            raise ValueError("no rollback samples")
        return self.cdf().quantile(coverage)
