"""Executor progress streaming: the cell ledger and its live rendering.

Executors emit plain-dict events through their optional ``on_event``
callback (the dialect is documented in :mod:`repro.api.executor`):
``cell_start``/``cell_done``, the caching layer's ``cache_hit``/
``cache_miss``/``cache_stale``, the cluster's ``worker_heartbeat``/
``worker_dead``, and the resilience layer's ``cell_retry``/
``cell_timeout``/``cell_exhausted`` (each with a typed ``cause``).

:class:`ProgressState` is the one fold of that stream, the *cell
ledger*: per cell (digest plus the event's index) a state machine
(:data:`TRANSITIONS`, ``pending -> running -> landed | exhausted``, and
``failed`` on ``cell_error``) with the attempts billed, worker pid,
monotonic attempt start and last typed failure ``cause``.  The sweep
journal persists its states, serve's ``/stats`` sums it, the cell
supervisor (:mod:`repro.resilience.supervisor`) finds overdue and
crashed cells among its running cells, and
:func:`repro.api.run_campaign` returns it.  Its :meth:`report` stays
coherent when terminal events are missing -- a killed worker leaves its
cells in ``incomplete``.  :class:`ProgressRenderer` draws the live
one-line view ``repro sweep --progress`` shows.
"""

from __future__ import annotations

import dataclasses
import sys
import threading
import time

#: The per-cell lifecycle.  ``failed``: an attempt raised (``cell_error``)
#: and may re-run; ``exhausted``: the attempt budget is spent.
CELL_STATES = ("pending", "running", "landed", "failed", "exhausted")

#: Typed failure causes carried by ``cell_retry``, ``cell_timeout`` and
#: ``cell_exhausted`` events (and :class:`~repro.api.executor.CellFailure`).
CAUSES = ("exception", "worker_dead", "timeout")

#: Legal moves of the per-cell state machine.  ``landed`` absorbs every
#: later event (a durable result is never un-landed: a straggler's retry
#: or a second cache hit is an idempotent landing); an exhausted cell may
#: still land through a fallback pass (the cluster's local merge) but
#: never re-queues.
TRANSITIONS = {
    "pending": frozenset(CELL_STATES),
    "running": frozenset(CELL_STATES),
    "failed": frozenset(CELL_STATES),
    "exhausted": frozenset({"running", "landed", "exhausted"}),
    "landed": frozenset({"landed"}),
}

#: Campaign-level tallies: event type -> counter, named as the serve
#: daemon's ``/stats`` counters (``records`` sums ``cell_done`` records).
TALLIES = {
    "cell_done": "cells_done",
    "cache_hit": "cache_hits",
    "cache_miss": "cache_misses",
    "cache_stale": "cache_stale",
    "cell_retry": "retries",
    "cell_timeout": "timeouts",
    "worker_dead": "worker_deaths",
}

#: The state each cell event moves its cell to.
EVENT_TARGET = {
    "cell_start": "running",
    "cell_done": "landed",
    "cache_hit": "landed",
    "cell_retry": "pending",
    "cell_timeout": "pending",
    "cell_error": "failed",
    "cell_exhausted": "exhausted",
}


@dataclasses.dataclass
class Cell:
    """One cell's ledger entry."""

    digest: "str | None"
    index: "int | None"
    state: str = "pending"
    attempts: int = 0           # attempts billed (the events' ``attempt``)
    worker: "int | None" = None  # pid hosting the latest attempt
    t0: "float | None" = None   # monotonic start of the latest attempt
    cause: "str | None" = None  # the latest typed failure cause


class ProgressState:
    """The cell ledger: folds executor events into per-cell state and
    campaign-level tallies.  Thread-safe: a pool's drain thread and its
    coordinator fold into one ledger concurrently.  ``clock`` stamps
    attempt starts (``Cell.t0``) and elapsed time."""

    def __init__(
        self, total: "int | None" = None, clock=time.monotonic
    ) -> None:
        self.total = total
        self._clock = clock
        self.cells: "dict[tuple, Cell]" = {}
        # index views maintained by the fold (O(1) progress reads)
        self.started: set[int] = set()
        self.done: set[int] = set()
        self.exhausted: set[int] = set()
        self.tally = dict.fromkeys([*TALLIES.values(), "records"], 0)
        self.worker_rss_kb: dict[int, int] = {}
        self.causes: dict[str, int] = {}
        self.illegal = 0
        self.malformed = 0
        self.t_start = clock()
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    def handle(self, event: dict) -> "Cell | None":
        """Fold one event; returns the cell it concerns (``None`` for
        campaign-level events).  Unknown/malformed events are tallied,
        never raised -- progress must not be able to break a run."""
        if not isinstance(event, dict) or "type" not in event:
            self.malformed += 1
            return None
        with self._lock:
            self._tally(event)
            if event["type"] in EVENT_TARGET:
                return self._move(event)
            return None

    def _tally(self, event: dict) -> None:
        etype, worker = event["type"], event.get("worker")
        if etype in TALLIES:
            self.tally[TALLIES[etype]] += 1
        elif etype not in EVENT_TARGET and etype != "worker_heartbeat":
            self.malformed += 1
        if etype == "cell_start" and self.total is None:
            self.total = event.get("total")
        elif etype == "cell_done":
            self.tally["records"] += event.get("records", 0)
        elif etype == "worker_dead":
            self.worker_rss_kb.pop(worker, None)
        if worker is not None and "rss_kb" in event:
            self.worker_rss_kb[worker] = event["rss_kb"]
        cause = event.get("cause")
        if cause is not None:
            self.causes[cause] = self.causes.get(cause, 0) + 1

    def _move(self, event: dict) -> "Cell | None":
        key = (event.get("digest"), event.get("index"))
        if key == (None, None):
            return None
        cell = self.cells.get(key)
        if cell is None:
            cell = self.cells[key] = Cell(*key)
        target = EVENT_TARGET[event["type"]]
        if cell.state == "landed":
            return cell  # absorbing: an idempotent landing
        if target not in TRANSITIONS[cell.state]:
            self.illegal += 1
            return cell
        if target == "running":
            cell.worker = event.get("worker")
            cell.t0 = self._clock()
        if "attempt" in event:
            cell.attempts = event["attempt"]
        if event.get("cause") is not None:
            cell.cause = event["cause"]
        elif target == "failed":
            cell.cause = "exception"
        cell.state = target
        index = cell.index
        if index is not None:
            if target in ("running", "landed"):
                self.started.add(index)
            if target == "landed":
                self.done.add(index)
            if target == "exhausted":
                self.exhausted.add(index)
            else:
                self.exhausted.discard(index)
        return cell

    def running(self) -> "list[Cell]":
        """Snapshot copies of the cells mid-attempt."""
        with self._lock:
            return [
                dataclasses.replace(cell)
                for cell in self.cells.values()
                if cell.state == "running"
            ]

    # ------------------------------------------------------------------
    # derived facts
    # ------------------------------------------------------------------
    def elapsed(self) -> float:
        return self._clock() - self.t_start

    def cells_per_sec(self) -> float:
        dt = self.elapsed()
        return len(self.done) / dt if dt > 0 else 0.0

    def eta_seconds(self) -> "float | None":
        """Projected seconds to completion (None before it's estimable)."""
        if self.total is None or not self.done:
            return None
        rate = self.cells_per_sec()
        if rate <= 0:
            return None
        return max(0.0, (self.total - len(self.done)) / rate)

    def cache_hit_rate(self) -> "float | None":
        hits = self.tally["cache_hits"]
        looked_up = hits + self.tally["cache_misses"]
        return hits / looked_up if looked_up else None

    def incomplete(self) -> set[int]:
        """Cells that started but never landed: a killed or lost worker,
        or a spent attempt budget (each :class:`Cell` ``cause`` says
        which)."""
        return self.started - self.done

    # ------------------------------------------------------------------
    def report(self) -> dict:
        """The coherent final summary (valid even mid-run or after a
        worker died: ``done + incomplete == started`` always holds)."""
        return {
            "total": self.total,
            "started": len(self.started),
            "done": len(self.done),
            "incomplete": sorted(self.incomplete()),
            "records": self.tally["records"],
            "cache": {
                "hits": self.tally["cache_hits"],
                "misses": self.tally["cache_misses"],
                "stale": self.tally["cache_stale"],
            },
            "elapsed_seconds": round(self.elapsed(), 3),
            "cells_per_sec": round(self.cells_per_sec(), 3),
            "workers": len(self.worker_rss_kb),
            "worker_rss_kb": dict(sorted(self.worker_rss_kb.items())),
            "worker_deaths": self.tally["worker_deaths"],
            "retries": self.tally["retries"],
            "timeouts": self.tally["timeouts"],
            "exhausted": sorted(self.exhausted),
            "malformed_events": self.malformed,
        }

    def update_registry(self) -> None:
        """Mirror the live state into the obs metrics registry (no-ops
        while the layer is disabled), so ``repro top`` snapshots show
        the running campaign."""
        from repro import obs

        obs.gauge("sweep.cells_total").set(self.total or 0)
        obs.gauge("sweep.cells_done").set(len(self.done))
        obs.gauge("sweep.cells_per_sec").set(round(self.cells_per_sec(), 3))
        obs.gauge("sweep.records").set(self.tally["records"])
        hit_rate = self.cache_hit_rate()
        if hit_rate is not None:
            obs.gauge("sweep.cache_hit_rate").set(round(hit_rate, 4))
        for name, gauge in (("worker_deaths", "worker_deaths"),
                            ("retries", "cell_retries"),
                            ("timeouts", "cell_timeouts")):
            if self.tally[name]:
                obs.gauge(f"sweep.{gauge}").set(self.tally[name])
        if self.exhausted:
            obs.gauge("sweep.cells_exhausted").set(len(self.exhausted))
        for worker, rss in self.worker_rss_kb.items():
            obs.gauge("worker.rss_kb", labels={"worker": str(worker)}).set(rss)


def _fmt_eta(seconds: "float | None") -> str:
    if seconds is None:
        return "--"
    if seconds >= 3600:
        return f"{seconds / 3600:.1f}h"
    if seconds >= 60:
        return f"{seconds / 60:.1f}m"
    return f"{seconds:.0f}s"


class ProgressRenderer:
    """Draws :class:`ProgressState` as a live single-line view.

    On a TTY the line rewrites in place (``\\r``); otherwise one line is
    printed per refresh interval so CI logs stay bounded.
    """

    def __init__(
        self,
        state: ProgressState,
        stream=None,
        min_interval: float = 0.5,
    ) -> None:
        self.state = state
        self.stream = stream if stream is not None else sys.stderr
        self.min_interval = min_interval
        self._last_render = 0.0
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())

    def line(self) -> str:
        state = self.state
        total = state.total if state.total is not None else "?"
        parts = [
            f"cells {len(state.done)}/{total}",
            f"{state.cells_per_sec():.2f}/s",
            f"eta {_fmt_eta(state.eta_seconds())}",
        ]
        tally = state.tally
        hit_rate = state.cache_hit_rate()
        if hit_rate is not None:
            parts.append(
                f"cache {tally['cache_hits']}h/{tally['cache_misses']}m "
                f"({hit_rate:.0%})"
            )
        if state.worker_rss_kb:
            peak = max(state.worker_rss_kb.values())
            parts.append(
                f"workers {len(state.worker_rss_kb)} "
                f"(peak rss {peak / 1024:.0f}MB)"
            )
        if tally["worker_deaths"]:
            parts.append(f"deaths {tally['worker_deaths']}")
        if tally["retries"] or tally["timeouts"]:
            parts.append(f"retries {tally['retries']}/{tally['timeouts']}to")
        return "sweep: " + "  ".join(parts)

    def maybe_render(self, force: bool = False) -> None:
        now = time.monotonic()
        if not force and now - self._last_render < self.min_interval:
            return
        self._last_render = now
        try:
            if self._tty:
                self.stream.write("\r\x1b[2K" + self.line())
            else:
                self.stream.write(self.line() + "\n")
            self.stream.flush()
        except (OSError, ValueError):
            pass  # a closed/broken stream must never break the run

    def finish(self) -> None:
        """Final render plus a newline to release the live line."""
        self.maybe_render(force=True)
        if self._tty:
            try:
                self.stream.write("\n")
                self.stream.flush()
            except (OSError, ValueError):
                pass
