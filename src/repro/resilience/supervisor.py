"""The cell supervisor: one failure policy for every executor backend.

Serial, pool and cluster executors differ only in transport: how a cell
starts, how its end is seen, and how the process hosting it is killed.
Everything about *failure* lives here, once, driven by a
:class:`~repro.resilience.RetryPolicy`:

* **billing** -- :meth:`CellSupervisor.fail` counts one failed attempt
  of a cell (typed ``cause``: ``exception``, ``worker_dead`` or
  ``timeout``), then either re-queues it after the policy's
  digest-derived backoff (``cell_retry``) or, with the budget spent,
  records a :class:`CellFailure` (``cell_exhausted``).  A cell already
  billed and not yet re-dispatched, exhausted or landed is never billed
  again, so two observers of one failure (a deadline kill that also
  breaks a pool) cost one attempt.
* **deadlines** -- :meth:`CellSupervisor.overdue` reads the ledger's
  running cells (:meth:`repro.obs.ProgressState.running`, ``Cell.t0``).
  Each cell past ``cell_timeout`` gets one ``cell_timeout`` event (the
  kill notice) and is billed with cause ``timeout`` through the same
  call; the backend then kills its host.  A timeout therefore streams
  ``cell_timeout`` followed by ``cell_retry`` (or ``cell_exhausted``).
* **backoff** -- re-queued cells wait in the supervisor until
  :meth:`CellSupervisor.ready` hands them back to the backend.

Every event a backend produces goes through :meth:`CellSupervisor.emit`,
which folds it into the supervisor's cell ledger before the caller's
``on_event`` sees it (serialized, so per-thread readers never
interleave).  What exhaustion *means* stays with the backend: serial and
pool finish the other cells and then raise the lowest-index failure
(:meth:`CellSupervisor.raise_failures`); the cluster computes exhausted
cells in its local merge pass.

With ``retry=None`` an exception propagates at once (the historical
fail-fast contract), and any other failure exhausts on its first
attempt.
"""

from __future__ import annotations

import threading
import time
from typing import Callable, Sequence

from repro.obs.progress import Cell, ProgressState
from repro.resilience.retry import RetryPolicy


class CellFailure(Exception):
    """One cell ran out of attempts (worker crash, deadline, or raise)
    while the rest of the sweep completed.  Naming the culprit -- index,
    label, digest, and why -- is the point: a ten-thousand-cell sweep
    must never die anonymously, and every *other* cell's result is
    already durable by the time this propagates.  ``cause`` types the
    last failure: ``exception``, ``worker_dead`` or ``timeout``."""

    def __init__(
        self, index: int, digest: str, label: str, reason: str, attempts: int,
        cause: "str | None" = None,
    ) -> None:
        self.index = index
        self.digest = digest
        self.label = label
        self.reason = reason
        self.attempts = attempts
        self.cause = cause
        super().__init__(
            f"cell {index} ({label}, digest {digest}) failed after "
            f"{attempts} attempt(s): {reason}"
        )


def cell_event(etype: str, index: int, digest: str, label: str, **fields) -> dict:
    """One per-cell event of the executor dialect."""
    return {
        "type": etype, "index": index, "digest": digest, "label": label,
        **fields,
    }


class CellSupervisor:
    """Attempts, backoff, deadlines and failures for one batch of cells.

    ``specs`` only need ``digest()`` and ``label()``.  ``on_event`` gets
    every event after the ledger fold.  ``clock``/``sleep`` are
    injectable so the policy can be driven without real time.
    """

    def __init__(
        self,
        specs: Sequence,
        retry: "RetryPolicy | None",
        on_event: "Callable[[dict], None] | None" = None,
        *,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ) -> None:
        self.retry = retry
        self._policy = retry if retry is not None else RetryPolicy(max_attempts=1)
        self.digests = [spec.digest() for spec in specs]
        self.labels = [spec.label() for spec in specs]
        self.ledger = ProgressState(total=len(self.digests), clock=clock)
        self.attempts = [0] * len(self.digests)
        self.failures: "dict[int, CellFailure]" = {}
        self.landed: set[int] = set()
        self._deferred: "dict[int, float]" = {}  # index -> ready time
        self._on_event = on_event
        self._clock = clock
        self._sleep = sleep
        self._lock = threading.RLock()

    def emit(self, event: dict) -> None:
        """Fold ``event`` into the ledger, then hand it to ``on_event``."""
        self.ledger.handle(event)
        if self._on_event is not None:
            with self._lock:
                self._on_event(event)

    def _event(self, etype: str, index: int, **fields) -> None:
        self.emit(cell_event(
            etype, index, self.digests[index], self.labels[index], **fields
        ))

    # ------------------------------------------------------------------
    def holds(self, index: int) -> bool:
        """Whether the cell needs no dispatch from the backend: landed,
        exhausted, or waiting out a backoff."""
        return (
            index in self.landed
            or index in self.failures
            or index in self._deferred
        )

    def land(self, index: int) -> None:
        """The cell's result is in: it wins over any bill racing it."""
        with self._lock:
            self.landed.add(index)
            self.failures.pop(index, None)
            self._deferred.pop(index, None)

    def fail(
        self, index: int, error: "BaseException | str", cause: str = "exception"
    ) -> bool:
        """Bill one failed attempt; returns whether the cell re-queues.

        ``error`` is the exception a cell raised or the reason text of
        any other failure.  Without a retry policy an exception is
        re-raised here.
        """
        if isinstance(error, BaseException):
            if self.retry is None:
                raise error
            error = f"raised {type(error).__name__}: {error}"
        with self._lock:
            if self.holds(index):
                return False
            self.attempts[index] += 1
            attempt = self.attempts[index]
            if self._policy.exhausted(attempt):
                self.failures[index] = CellFailure(
                    index, self.digests[index], self.labels[index], error,
                    attempt, cause,
                )
                self._event(
                    "cell_exhausted", index, attempt=attempt, error=error,
                    cause=cause,
                )
                return False
            delay = self._policy.backoff(self.digests[index], attempt)
            self._deferred[index] = self._clock() + delay
            self._event(
                "cell_retry", index, attempt=attempt, delay=round(delay, 6),
                error=error, cause=cause,
            )
            return True

    def overdue(self) -> "list[Cell]":
        """Running cells past the deadline.  Each gets its one
        ``cell_timeout`` and is billed (cause ``timeout``); the caller
        kills their hosts."""
        timeout = self._policy.cell_timeout
        if timeout is None:
            return []
        now = self._clock()
        over = [
            cell for cell in self.ledger.running()
            if not self.holds(cell.index)
            and self._policy.over_deadline(cell.t0, now)
        ]
        for cell in over:
            self._event(
                "cell_timeout", cell.index, worker=cell.worker,
                attempt=self.attempts[cell.index] + 1, timeout=timeout,
                cause="timeout",
            )
            self.fail(cell.index, f"exceeded cell_timeout={timeout}s", "timeout")
        return over

    def waiting(self) -> bool:
        """Whether some re-queued cell is still waiting out its backoff."""
        return bool(self._deferred)

    def ready(self, block: bool = False) -> "list[int]":
        """Pop the re-queued cells whose backoff elapsed, by index.
        ``block`` first sleeps until the earliest one is due."""
        with self._lock:
            due = min(self._deferred.values(), default=None)
        if block and due is not None:
            self._sleep(max(0.0, due - self._clock()))
        now = self._clock()
        with self._lock:
            ready = sorted(i for i, t in self._deferred.items() if t <= now)
            for index in ready:
                del self._deferred[index]
        return ready

    def raise_failures(self) -> None:
        """Raise the lowest-index :class:`CellFailure`, if any."""
        if self.failures:
            raise self.failures[min(self.failures)]
