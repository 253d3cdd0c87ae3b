"""The unified retry policy: one failure-handling vocabulary for every
executor backend.

Before this module, failure handling was scattered: the cluster
coordinator had a bare ``max_retries`` counter, the process pool had
none (a crashed pool worker aborted the whole sweep), and nothing could
bound how long a single wedged cell was allowed to stall a shard.
:class:`RetryPolicy` collects the three knobs every backend shares:

* **attempt budget** -- how many times a cell may be dispatched before
  it is declared exhausted (the cluster then degrades it to the local
  merge pass; serial/parallel raise a
  :class:`~repro.api.executor.CellFailure` naming the cell).
* **exponential backoff with deterministic jitter** -- re-dispatch of a
  failed cell waits ``base * factor**(attempt-1)``, spread by a jitter
  term derived from the cell's *spec digest* rather than a live RNG.
  Determinism matters twice: campaign RNG must never be consumed by
  infrastructure (digest-neutrality), and two coordinators retrying the
  same sweep stay in deterministic lockstep, which keeps chaos tests
  reproducible.
* **per-cell wall-clock deadline** (``cell_timeout``) -- a cell running
  longer than this is presumed wedged (SIGSTOPped worker, livelocked
  simulation, lost ``cell_result`` line).  Enforcement uses the
  existing worker *process* boundary: the executor kills the process
  hosting the cell and re-queues it, so a hung cell costs one deadline
  instead of stalling its shard forever.

The policy is pure configuration: it never appears in
:class:`~repro.api.spec.ExperimentSpec`, spec digests, cache keys or
canonical result bytes (the same digest-neutrality contract as
``engine`` and the obs layer).
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass


@dataclass(frozen=True)
class RetryPolicy:
    """How often, how fast, and how long a sweep cell may be retried.

    Args:
        max_attempts: total dispatch budget per cell (1 = never retry).
        backoff_base: delay before the first re-dispatch (seconds).
        backoff_factor: multiplier per further attempt.
        backoff_cap: upper bound on the un-jittered delay (seconds).
        jitter: spread fraction; the final delay lands deterministically
            in ``[delay * (1 - jitter/2), delay * (1 + jitter/2)]``.
        cell_timeout: per-attempt wall-clock deadline (seconds); ``None``
            disables deadline enforcement.
    """

    max_attempts: int = 3
    backoff_base: float = 0.1
    backoff_factor: float = 2.0
    backoff_cap: float = 30.0
    jitter: float = 0.5
    cell_timeout: "float | None" = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be at least 1")
        if self.backoff_base < 0 or self.backoff_cap < 0:
            raise ValueError("backoff delays must be non-negative")
        if not 0 <= self.jitter <= 1:
            raise ValueError("jitter must be within [0, 1]")
        if self.cell_timeout is not None and self.cell_timeout <= 0:
            raise ValueError("cell_timeout must be positive (or None)")

    # ------------------------------------------------------------------
    def exhausted(self, attempts: int) -> bool:
        """Whether a cell that has been dispatched ``attempts`` times is
        out of budget."""
        return attempts >= self.max_attempts

    def backoff(self, digest: str, attempt: int) -> float:
        """Seconds to wait before dispatching ``attempt`` (1-based count
        of *re*-dispatches) of the cell with the given spec digest.

        The jitter term is a pure function of ``(digest, attempt)`` --
        blake2b, like every other stable hash in the repo -- so retry
        schedules are reproducible and never touch campaign RNG.
        """
        delay = min(
            self.backoff_cap,
            self.backoff_base * self.backoff_factor ** max(0, attempt - 1),
        )
        if self.jitter == 0 or delay == 0:
            return delay
        blob = f"{digest}:{attempt}".encode("utf-8")
        frac = int.from_bytes(
            hashlib.blake2b(blob, digest_size=8).digest(), "big"
        ) / float(1 << 64)
        return delay * (1.0 - self.jitter / 2.0 + self.jitter * frac)

    def over_deadline(self, started_monotonic: float, now: float) -> bool:
        """Whether a cell started at ``started_monotonic`` has exceeded
        the per-attempt deadline at time ``now``."""
        if self.cell_timeout is None:
            return False
        return now - started_monotonic > self.cell_timeout

