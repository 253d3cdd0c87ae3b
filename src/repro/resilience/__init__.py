"""Crash-safe sweeps: journal, retry policy, graceful shutdown, fsck.

The execution fabric's resilience layer, in five pieces:

* :class:`RetryPolicy` (:mod:`repro.resilience.retry`) -- the unified
  attempt-budget / backoff / per-cell-deadline vocabulary threaded
  through every executor backend.
* :class:`~repro.resilience.supervisor.CellSupervisor`
  (:mod:`repro.resilience.supervisor`) -- the one place that applies
  it: bills attempts, schedules backoff, finds overdue cells in the
  cell ledger, and records :class:`~repro.api.executor.CellFailure`
  for the serial, pool and cluster backends alike.
* :class:`SweepJournal` (:mod:`repro.resilience.journal`) -- the
  atomic, digest-keyed manifest behind ``repro sweep --journal`` /
  ``--resume``: a killed coordinator costs only the unlanded cells.
* :class:`GracefulShutdown` / :class:`SweepInterrupted`
  (:mod:`repro.resilience.shutdown`) -- SIGINT/SIGTERM drain in-flight
  cells and exit with a resumable state.
* :func:`fsck_cache` (:mod:`repro.resilience.fsck`) -- audit and
  quarantine damage in a result bus (``repro cache fsck``).

The chaos harness (:mod:`repro.resilience.chaos`) lives alongside but
is imported on demand (``from repro.resilience import chaos``): it is
test machinery, not a runtime dependency.

Everything here is operational state about a sweep, never part of one:
no field of this package enters spec digests, cache keys, or canonical
result bytes (the obs-layer digest-neutrality contract).
"""

from repro.resilience.fsck import FsckReport, fsck_cache
from repro.resilience.journal import (
    JOURNAL_VERSION,
    SweepJournal,
    journal_path,
)
from repro.resilience.retry import RetryPolicy
from repro.resilience.shutdown import GracefulShutdown, SweepInterrupted

__all__ = [
    "FsckReport",
    "GracefulShutdown",
    "JOURNAL_VERSION",
    "RetryPolicy",
    "SweepInterrupted",
    "SweepJournal",
    "fsck_cache",
    "journal_path",
]
