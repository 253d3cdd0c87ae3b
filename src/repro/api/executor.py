"""Pluggable executors: how a list of experiment specs gets run.

The :class:`Executor` protocol is the seam every future scaling backend
plugs into (sharding, async pools, remote workers).  Two implementations
ship today:

* :class:`SerialExecutor` -- one session, one process, spec order.
* :class:`ParallelExecutor` -- a ``concurrent.futures``
  ``ProcessPoolExecutor`` fan-out.  Specs cross the process boundary as
  plain dicts and results come back the same way, so nothing
  unpicklable (machines, snapshots) ever leaves a worker.

Both return results in spec order, and -- because a spec fully
determines its campaign (stable-digest seeding, per-run snapshot
restore) -- both produce *identical* results for identical spec lists.
The sweep CLI asserts exactly that when comparing serial and parallel
output files.

Progress streaming
------------------

``run`` accepts an optional keyword-only ``on_event`` callback fed
plain dicts as cells progress:

* ``{"type": "cell_start", "index", "total", "digest", "label",
  "worker", "t"}`` -- a cell began executing (``worker`` = pid,
  ``t`` = wall-clock epoch seconds).
* ``{"type": "cell_done", ..., "seconds", "cpu_seconds", "rss_kb",
  "records"}`` -- the cell landed: its result is already in the
  caller's hands (``on_result`` returned, so a :class:`CachingExecutor`
  result is durable on disk) when the event is emitted; measurements
  were taken in the process that ran it.
* ``{"type": "cache_hit" | "cache_miss" | "cache_stale", "index",
  "digest", "label"}`` -- from :class:`CachingExecutor` (``stale`` =
  an on-disk entry existed but was corrupt or mismatched).
* ``{"type": "cell_retry", "index", "digest", "label", "attempt",
  "delay", "error", "cause"}`` -- an attempt failed and the cell
  re-queues after ``delay`` seconds (:class:`repro.resilience.RetryPolicy`).
* ``{"type": "cell_timeout", "index", "digest", "label", "worker",
  "attempt", "timeout", "cause"}`` -- the kill notice: a cell outlived
  the per-cell deadline and its hosting worker process is killed.  The
  attempt is billed by the ``cell_retry`` (or ``cell_exhausted``) with
  cause ``timeout`` that always follows, on every backend that
  enforces deadlines (pool and cluster; serial has no worker process
  to kill and ignores ``cell_timeout``).
* ``{"type": "cell_exhausted", "index", "digest", "label", "attempt",
  "error", "cause"}`` -- a cell spent its whole attempt budget; the
  sweep finishes the remaining cells, then raises :class:`CellFailure`
  naming the culprit.

``cause`` types the failure -- ``exception`` (the cell raised),
``worker_dead`` (its worker process died) or ``timeout`` (its deadline
killed it) -- next to the human-readable ``error`` text.  One
:class:`repro.resilience.supervisor.CellSupervisor` per run bills
attempts and emits these three events for every backend.  The events
fold into one cell ledger, :class:`repro.obs.ProgressState`, and
:func:`run_campaign` runs a campaign around that ledger.

Serial executors call back inline; :class:`ParallelExecutor` routes
worker events through a manager queue drained by a coordinator thread,
so ``on_event`` always runs in the calling process.  A pool worker
returns its ``cell_done`` with the result, and the parent queues it
behind the cell's ``cell_start`` once the result has landed.  Events
are pure telemetry: emitting them never changes results (the
serial/parallel byte-identity contract holds with or without a
callback), and callback exceptions are swallowed so observers cannot
break a sweep -- the first failure per run is logged once so a broken
consumer stays diagnosable.

Resilience
----------

``run`` additionally accepts two keyword-only resilience hooks (the
in-process half of the crash-safety story; the durable half is
:mod:`repro.resilience`):

* ``stop`` -- a ``threading.Event``; once set, the executor stops
  *between* cells, drains whatever is in flight, and raises
  :class:`repro.resilience.SweepInterrupted` with a consistent,
  resumable state (:class:`repro.resilience.GracefulShutdown` sets it
  from SIGINT/SIGTERM).
* ``on_result`` -- ``(index, result)`` called the moment a cell's
  result materialises, *before* the batch completes.
  :class:`CachingExecutor` threads this through its inner executor to
  land each fresh result on disk as it finishes, so a sweep killed
  mid-flight keeps every completed cell.

Retry/timeout state is operational, never semantic: it cannot enter
spec digests, cache keys, or canonical result bytes, so a retried
sweep stays byte-identical to an untroubled one.
"""

from __future__ import annotations

import dataclasses
import inspect
import logging
import os
import queue as queue_mod
import signal
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path
from typing import Callable, Protocol, Sequence, runtime_checkable

from repro.api.result import ExperimentResult
from repro.api.spec import ExperimentSpec
from repro.api.session import Session
from repro.obs.progress import ProgressState
from repro.resilience.retry import RetryPolicy
from repro.resilience.shutdown import SweepInterrupted
from repro.resilience.supervisor import CellFailure, CellSupervisor
from repro.resilience.supervisor import cell_event as _cell_event

logger = logging.getLogger(__name__)

#: Progress callback: receives plain-dict events, return value ignored.
OnEvent = Callable[[dict], None]

#: Incremental result hook: ``(index, result)`` as each cell lands.
OnResult = Callable[[int, ExperimentResult], None]


@runtime_checkable
class Executor(Protocol):
    """Anything that can run a batch of specs and keep their order."""

    def run(
        self, specs: Sequence[ExperimentSpec]
    ) -> list[ExperimentResult]: ...


def _accepts_kw(executor, name: str) -> bool:
    """Whether an executor's ``run`` takes keyword ``name`` (third-party
    executors predating progress streaming or resilience may not)."""
    try:
        return name in inspect.signature(executor.run).parameters
    except (TypeError, ValueError):
        return False


class _SafeEmitter:
    """Per-run ``on_event`` wrapper: callback errors never break the
    sweep, but the *first* failure of a run is logged (warn once, then
    stay silent) so a broken progress consumer is diagnosable."""

    __slots__ = ("_callback", "warned")

    def __init__(self, callback: OnEvent) -> None:
        self._callback = callback
        self.warned = False

    def __call__(self, event: dict) -> None:
        try:
            self._callback(event)
        except Exception:
            if not self.warned:
                self.warned = True
                logger.warning(
                    "on_event callback raised; suppressing further "
                    "callback errors for this run",
                    exc_info=True,
                )


def _emitter(on_event: "OnEvent | None") -> "_SafeEmitter | None":
    """Wrap a raw callback once per run (idempotent on re-wrap)."""
    if on_event is None or isinstance(on_event, _SafeEmitter):
        return on_event
    return _SafeEmitter(on_event)


def _safe_emit(on_event: "_SafeEmitter | None", event: dict) -> None:
    if on_event is not None:
        on_event(event)


def _cell_events(spec: ExperimentSpec, index: int, total: int) -> dict:
    """The ``cell_start`` event for one cell (also the template the
    matching ``cell_done`` is built from)."""
    return _cell_event(
        "cell_start", index, spec.digest(), spec.label(), total=total,
        worker=os.getpid(), t=round(time.time(), 6),
    )


def _done_event(start: dict, seconds: float, cpu: float, records: int) -> dict:
    from repro.obs import rss_kb

    return {
        **start,
        "type": "cell_done",
        "t": round(time.time(), 6),
        "seconds": round(seconds, 6),
        "cpu_seconds": round(cpu, 6),
        "rss_kb": rss_kb(),
        "records": records,
    }


class SerialExecutor:
    """Runs specs one after another in a single session.

    ``retry`` (a :class:`repro.resilience.RetryPolicy`) turns per-cell
    exceptions into backoff-delayed re-attempts; a cell that spends its
    budget is recorded, the other cells still run (and land through
    ``on_result``), and the run raises the lowest-index
    :class:`CellFailure` at the end.  Without a policy a raising cell
    propagates immediately (the historical contract).  ``cell_timeout``
    has no effect here: there is no worker process to kill, so a wedged
    serial cell blocks the run.
    """

    def __init__(
        self,
        session: "Session | None" = None,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        self.session = session
        self.retry = retry

    def run(
        self,
        specs: Sequence[ExperimentSpec],
        *,
        on_event: "OnEvent | None" = None,
        stop: "threading.Event | None" = None,
        on_result: "OnResult | None" = None,
    ) -> list[ExperimentResult]:
        session = self.session if self.session is not None else Session()
        specs = list(specs)
        total = len(specs)
        sup = CellSupervisor(specs, self.retry, _emitter(on_event))
        results: "dict[int, ExperimentResult]" = {}
        todo = list(range(total))
        while todo or sup.waiting():
            if stop is not None and stop.is_set():
                raise SweepInterrupted(done=len(results), total=total)
            # re-queued cells go first, once their backoff elapsed
            todo[:0] = sup.ready(block=not todo)
            if not todo:
                continue
            i = todo.pop(0)
            start = _cell_events(specs[i], i, total)
            sup.emit(start)
            t0, cpu0 = time.perf_counter(), time.process_time()
            try:
                result = session.run(specs[i])
            except Exception as exc:
                sup.fail(i, exc)
                continue
            done = _done_event(
                start, time.perf_counter() - t0, time.process_time() - cpu0,
                len(result.records),
            )
            sup.land(i)
            results[i] = result
            if on_result is not None:
                on_result(i, result)
            sup.emit(done)
        sup.raise_failures()
        return [results[i] for i in range(total)]


# ----------------------------------------------------------------------
# process-pool backend
# ----------------------------------------------------------------------
#: per-worker session, so specs landing in the same worker share
#: platforms (and their golden runs) across tasks
_WORKER_SESSION: "Session | None" = None

#: per-worker event queue (a manager proxy installed by the pool
#: initializer)
_WORKER_EVENT_QUEUE = None


def _worker_session() -> Session:
    global _WORKER_SESSION
    if _WORKER_SESSION is None:
        _WORKER_SESSION = Session()
    return _WORKER_SESSION


def _init_worker_events(event_queue) -> None:
    global _WORKER_EVENT_QUEUE
    _WORKER_EVENT_QUEUE = event_queue


def _put_event(event: dict) -> None:
    try:
        _WORKER_EVENT_QUEUE.put(event)
    except Exception:
        pass


def _run_task(task: tuple) -> tuple[dict, dict]:
    """Worker entry point: (index, total, spec dict) in, (result dict,
    ``cell_done`` event) out (always picklable).  ``cell_start`` goes to
    the shared queue at once; the parent emits ``cell_done`` once it has
    landed the result."""
    index, total, spec_dict = task
    spec = ExperimentSpec.from_dict(spec_dict)
    start = _cell_events(spec, index, total)
    _put_event(start)
    t0, cpu0 = time.perf_counter(), time.process_time()
    result = _worker_session().run(spec)
    done = _done_event(
        start, time.perf_counter() - t0, time.process_time() - cpu0,
        len(result.records),
    )
    return result.to_dict(), done


class ParallelExecutor:
    """Fans independent specs out over a process pool, one cell per task
    so every failure attributes to a single cell.

    Args:
        workers: pool size; defaults to ``os.cpu_count()``.
        retry: a :class:`repro.resilience.RetryPolicy`.  With one, a
            crashed pool worker costs a bounded re-attempt of only the
            cells it was running, a hung cell is killed at the per-cell
            deadline and re-queued, and a raising cell re-runs with
            backoff.  Without one, a raising cell propagates at once and
            a crashed worker fails *the cells it took down* (naming them
            via :class:`CellFailure`) while the remaining cells still
            complete -- never an anonymous ``BrokenProcessPool`` for the
            whole sweep.
    """

    def __init__(
        self,
        workers: "int | None" = None,
        retry: "RetryPolicy | None" = None,
    ) -> None:
        self.workers = workers if workers is not None else (os.cpu_count() or 1)
        if self.workers < 1:
            raise ValueError("workers must be at least 1")
        self.retry = retry

    def run(
        self,
        specs: Sequence[ExperimentSpec],
        *,
        on_event: "OnEvent | None" = None,
        stop: "threading.Event | None" = None,
        on_result: "OnResult | None" = None,
    ) -> list[ExperimentResult]:
        import multiprocessing as mp

        specs = list(specs)
        if not specs:
            return []
        total = len(specs)
        # the supervisor's ledger folds every event first: its running
        # cells (pid + start) are what deadlines and broken-pool billing
        # act on
        sup = CellSupervisor(specs, self.retry, _emitter(on_event))
        tasks = [(i, total, spec.to_dict()) for i, spec in enumerate(specs)]
        results: "dict[int, ExperimentResult]" = {}
        with mp.Manager() as manager:
            # a manager-proxy queue is picklable under every start
            # method, so it can ride in as a pool initializer argument
            event_queue = manager.Queue()
            drain_stop = threading.Event()

            def drain() -> None:
                while True:
                    try:
                        event = event_queue.get(timeout=0.2)
                    except queue_mod.Empty:
                        if drain_stop.is_set():
                            return
                        continue
                    except (EOFError, OSError):
                        return  # manager went away (shutdown race)
                    sup.emit(event)

            drainer = threading.Thread(
                target=drain, name="repro-obs-drain", daemon=True
            )
            drainer.start()
            try:
                todo = list(range(total))
                while todo or sup.waiting():
                    if stop is not None and stop.is_set():
                        raise SweepInterrupted(done=len(results), total=total)
                    # one pool lifetime; a kill or crash inside ends it
                    # and the loop starts a fresh pool for the survivors
                    todo = self._one_pool(
                        todo, sup, tasks, event_queue, results, stop,
                        on_result,
                    )
            finally:
                drain_stop.set()
                drainer.join(timeout=5.0)
        sup.raise_failures()
        return [results[i] for i in range(total)]

    def _one_pool(
        self, todo, sup, tasks, event_queue, results, stop, on_result
    ) -> "list[int]":
        """Run ``todo`` and the supervisor's re-queued cells until every
        cell lands or exhausts, the pool breaks, or ``stop`` drains it.
        Returns the unbilled cells the next pool must run."""
        from concurrent.futures import FIRST_COMPLETED, wait
        from concurrent.futures.process import BrokenProcessPool

        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            initializer=_init_worker_events,
            initargs=(event_queue,),
        )
        futures: dict = {}
        outstanding: set = set()

        def submit(index: int) -> None:
            fut = pool.submit(_run_task, tasks[index])
            futures[fut] = index
            outstanding.add(fut)

        billed, landed = sum(sup.attempts), len(results)
        broken = draining = False
        try:
            for i in todo:
                submit(i)
            while outstanding or (sup.waiting() and not draining):
                done: "set | tuple" = ()
                if outstanding:
                    done, _ = wait(
                        outstanding, timeout=0.1, return_when=FIRST_COMPLETED
                    )
                    outstanding -= done
                else:
                    time.sleep(0.05)  # everything live is in backoff
                for fut in done:
                    if fut.cancelled():
                        continue
                    index, exc = futures[fut], fut.exception()
                    if exc is None:
                        result, done = fut.result()
                        results[index] = ExperimentResult.from_dict(result)
                        sup.land(index)
                        if on_result is not None:
                            on_result(index, results[index])
                        # through the queue, so it folds after the
                        # cell's cell_start
                        event_queue.put(done)
                    elif isinstance(exc, BrokenProcessPool):
                        broken = True
                    else:
                        sup.fail(index, exc)
                if broken:
                    break
                if stop is not None and stop.is_set() and not draining:
                    # drain: queued cells cancel, running cells finish
                    draining = True
                    for fut in list(outstanding):
                        if fut.cancel():
                            outstanding.discard(fut)
                if not draining:
                    for i in sup.ready():
                        submit(i)
                # the only reliable way to stop a wedged simulation is
                # the process boundary; the kill breaks the pool
                for cell in sup.overdue():
                    if cell.worker:
                        try:
                            os.kill(cell.worker, signal.SIGKILL)
                        except OSError:
                            pass
        finally:
            pool.shutdown(wait=False, cancel_futures=True)

        if broken:
            # bill exactly the cells the ledger shows caught mid-flight.
            # Give the event queue a beat first so in-flight
            # cell_start/cell_done records are folded in.
            time.sleep(0.3)
            suspects = sorted(
                cell.index for cell in sup.ledger.running()
                if not sup.holds(cell.index)
            )
            if not suspects and (sum(sup.attempts), len(results)) == (
                billed, landed
            ):
                # nothing was ever attributed (a worker died during
                # startup or before its first event escaped): without a
                # suspect the next pool could die the same way forever,
                # so every unfinished cell shares the blame
                suspects = sorted(set(futures.values()))
            for index in suspects:
                sup.fail(index, "its pool worker died (crash or kill)",
                         "worker_dead")
        return sorted({i for i in futures.values() if not sup.holds(i)})


# ----------------------------------------------------------------------
# on-disk result cache: shared content-addressed store helpers
# ----------------------------------------------------------------------
# The (spec digest -> canonical result JSON) store is shared machinery:
# CachingExecutor uses it as a sweep cache, and the cluster subsystem
# (repro.cluster) uses the same directory as its result bus -- workers
# land results here and the coordinator merges from it, so retried or
# straggler-re-dispatched cells are free cache hits.


def result_cache_path(cache_dir: "str | Path", spec: ExperimentSpec) -> Path:
    """Where a spec's canonical result JSON lives under ``cache_dir``."""
    return Path(cache_dir) / f"{spec.digest()}.json"


def load_cached_result(
    path: Path, spec: ExperimentSpec
) -> "tuple[ExperimentResult | None, bool]":
    """Load one cache entry: ``(result, stale)``.

    ``(None, False)`` -- no entry.  ``(None, True)`` -- an entry existed
    but was corrupt (interrupted write) or embedded a different spec
    (digest collision or tampering); callers recompute and rewrite.
    """
    if not path.is_file():
        return None, False
    try:
        cached = ExperimentResult.load(path)
    except (ValueError, KeyError, OSError):
        return None, True
    if cached.spec != spec:
        return None, True
    return cached, False


def store_cached_result(path: Path, result: ExperimentResult) -> None:
    """Atomically publish one result under its final cache name.

    Many processes may land the same digest at once (the cluster result
    bus does on retries and stragglers): :meth:`ExperimentResult.save`
    publishes through a per-writer temp name, so every rename is atomic
    and last-writer-wins, and identical specs produce byte-identical
    files, so the winner never matters.
    """
    result.save(path)


def shard_by_digest(
    specs: Sequence[ExperimentSpec], shards: int
) -> "list[list[tuple[int, ExperimentSpec]]]":
    """Deterministically partition cells across ``shards`` workers.

    Each cell goes to ``int(digest, 16) % shards`` -- a pure function of
    the spec content, so every coordinator (and every retry of the same
    sweep) computes the same placement without coordination.  Returns
    ``shards`` lists of ``(original_index, spec)`` pairs; the original
    index rides along so worker telemetry and result merging speak the
    grid's reporting order.
    """
    if shards < 1:
        raise ValueError("shards must be at least 1")
    out: "list[list[tuple[int, ExperimentSpec]]]" = [[] for _ in range(shards)]
    for index, spec in enumerate(specs):
        out[int(spec.digest(), 16) % shards].append((index, spec))
    return out


class CachingExecutor:
    """Skips specs whose canonical result JSON already exists on disk.

    Cache layout: one ``<spec.digest()>.json`` per cell under
    ``cache_dir``, written with :meth:`ExperimentResult.save` (the
    canonical byte-stable encoding).  Hits are loaded and returned in
    spec order alongside freshly-computed misses, so a cached sweep is
    byte-identical to an uncached one.  A cached file whose embedded
    spec does not round-trip to the requested spec (digest collision or
    manual tampering) is treated as a miss and rewritten.
    """

    def __init__(self, cache_dir: "str | Path", inner: "Executor | None" = None):
        self.cache_dir = Path(cache_dir)
        self.inner = inner if inner is not None else SerialExecutor()
        #: hit/miss/stale tally of the most recent :meth:`run` (for
        #: logs, the sweep cache summary, and tests).  ``stale`` counts
        #: on-disk entries that existed but were corrupt or mismatched.
        self.last_hits = 0
        self.last_misses = 0
        self.last_stale = 0

    def _path_for(self, spec: ExperimentSpec) -> Path:
        return result_cache_path(self.cache_dir, spec)

    def run(
        self,
        specs: Sequence[ExperimentSpec],
        *,
        on_event: "OnEvent | None" = None,
        stop: "threading.Event | None" = None,
        on_result: "OnResult | None" = None,
    ) -> list[ExperimentResult]:
        from repro import obs

        on_event = _emitter(on_event)
        specs = list(specs)
        results: "list[ExperimentResult | None]" = [None] * len(specs)
        miss_indices: list[int] = []
        self.last_stale = 0
        for i, spec in enumerate(specs):
            cached, stale = load_cached_result(self._path_for(spec), spec)
            ids = (i, spec.digest(), spec.label())
            if cached is not None:
                results[i] = cached
                obs.counter("cache.hits").inc()
                _safe_emit(
                    on_event, _cell_event("cache_hit", *ids, total=len(specs))
                )
                continue
            if stale:
                self.last_stale += 1
                obs.counter("cache.stale").inc()
                _safe_emit(on_event, _cell_event("cache_stale", *ids))
            obs.counter("cache.misses").inc()
            _safe_emit(on_event, _cell_event("cache_miss", *ids))
            miss_indices.append(i)
        self.last_hits = len(specs) - len(miss_indices)
        self.last_misses = len(miss_indices)
        if miss_indices:
            miss_specs = [specs[i] for i in miss_indices]
            try:
                fresh, stored = self._run_inner(
                    miss_specs, miss_indices, len(specs),
                    on_event, stop, on_result,
                )
            except CellFailure as exc:
                # inner executors index into the miss list; re-raise in
                # original-spec coordinates so callers name the right cell
                if 0 <= exc.index < len(miss_indices):
                    raise CellFailure(
                        miss_indices[exc.index], exc.digest, exc.label,
                        exc.reason, exc.attempts, exc.cause,
                    ) from exc
                raise
            except SweepInterrupted as exc:
                raise SweepInterrupted(
                    done=exc.done + self.last_hits, total=len(specs)
                ) from exc
            for pos, (i, result) in enumerate(zip(miss_indices, fresh)):
                if pos not in stored:
                    store_cached_result(self._path_for(specs[i]), result)
                    if on_result is not None:
                        on_result(i, result)
                results[i] = result
        return results  # type: ignore[return-value]

    def _run_inner(
        self,
        miss_specs: list,
        miss_indices: list[int],
        total: int,
        on_event: "OnEvent | None",
        stop: "threading.Event | None",
        on_result: "OnResult | None",
    ) -> "tuple[list[ExperimentResult], set[int]]":
        """Run the misses through the inner executor, landing each fresh
        result on disk *as it completes* when the inner executor speaks
        ``on_result`` -- a sweep killed mid-batch keeps every finished
        cell.  Returns ``(results, positions already stored)``."""
        kwargs: dict = {}
        if on_event is not None and _accepts_kw(self.inner, "on_event"):

            def remapped(event: dict) -> None:
                # inner executors index into the miss list; progress
                # wants positions in the original spec list
                if "index" in event:
                    event = {**event, "index": miss_indices[event["index"]]}
                if "total" in event:
                    event = {**event, "total": total}
                on_event(event)

            kwargs["on_event"] = remapped
        if stop is not None and _accepts_kw(self.inner, "stop"):
            kwargs["stop"] = stop
        stored: set[int] = set()
        if _accepts_kw(self.inner, "on_result"):

            def store_now(pos: int, result: ExperimentResult) -> None:
                store_cached_result(self._path_for(miss_specs[pos]), result)
                stored.add(pos)
                if on_result is not None:
                    on_result(miss_indices[pos], result)

            kwargs["on_result"] = store_now
        return self.inner.run(miss_specs, **kwargs), stored


# ----------------------------------------------------------------------
# one campaign runner for every front end
# ----------------------------------------------------------------------
@dataclasses.dataclass
class CampaignOutcome:
    """How a :func:`run_campaign` call ended: ``done`` (``results`` in
    spec order), ``interrupted`` (``failure`` is the
    :class:`SweepInterrupted`) or ``failed`` (the :class:`CellFailure`).
    ``worker_dead``: some worker died on the way (an event or a cause
    says so), so the bus deserves an fsck."""

    status: str
    results: "list[ExperimentResult] | None"
    failure: "Exception | None"
    ledger: ProgressState
    worker_dead: bool


def run_campaign(
    executor: Executor,
    specs: Sequence[ExperimentSpec],
    *,
    journal=None,
    stop: "threading.Event | None" = None,
    on_event: "OnEvent | None" = None,
    ledger: "ProgressState | None" = None,
) -> CampaignOutcome:
    """Run ``specs`` through ``executor`` with one cell ledger folding
    the event stream.  The ledger's cells persist into ``journal`` (a
    :class:`repro.resilience.SweepJournal`) as they move, ``on_event``
    sees every event after the fold, and the journal is reconciled
    against its bus on every exit.  Pass ``ledger`` to watch it live
    (the CLI's progress line, serve's ``/stats``).  Exceptions other
    than :class:`CellFailure` and :class:`SweepInterrupted` propagate.
    """
    specs = list(specs)
    if ledger is None:
        ledger = ProgressState(total=len(specs))

    def fold(event: dict) -> None:
        cell = ledger.handle(event)
        if journal is not None:
            journal.record(cell)
        if on_event is not None:
            on_event(event)

    results, failure, status = None, None, "done"
    try:
        results = executor.run(specs, on_event=fold, stop=stop)
    except SweepInterrupted as exc:
        failure, status = exc, "interrupted"
    except CellFailure as exc:
        failure, status = exc, "failed"
    finally:
        if journal is not None:
            journal.reconcile(specs)
    worker_dead = bool(
        ledger.tally["worker_deaths"] or ledger.causes.get("worker_dead")
    )
    return CampaignOutcome(status, results, failure, ledger, worker_dead)


def make_executor(
    workers: int = 1,
    cache_dir: "str | Path | None" = None,
    cluster: int = 0,
    launcher=None,
    *,
    retry: "RetryPolicy | None" = None,
    max_retries: "int | None" = None,
    heartbeat_timeout: "float | None" = None,
    cell_timeout: "float | None" = None,
    worker_procs: "int | None" = None,
    session: "Session | None" = None,
) -> Executor:
    """``workers <= 1`` selects the serial path, anything else the pool;
    ``cache_dir`` wraps the chosen executor in a :class:`CachingExecutor`.
    ``cluster > 0`` instead builds a ``repro.cluster.ClusterExecutor``
    fanning out over that many worker agents (``launcher`` picks the
    transport, ``cache_dir`` names the shared result bus).  No backend
    takes a cycle engine: every worker runs the default one, and an
    in-process ``spec.engine`` reaches only the serial path's session.

    Resilience knobs: pass a full :class:`repro.resilience.RetryPolicy`
    as ``retry``, or the CLI-shaped scalars -- ``max_retries`` (extra
    attempts after the first; ``max_attempts = max_retries + 1``) and
    ``cell_timeout`` (per-cell wall-clock deadline, seconds) -- and one
    is built.  ``heartbeat_timeout`` only applies to the cluster backend
    (seconds of silence before a worker is declared dead), as does
    ``worker_procs`` (each worker agent runs its shard through a
    process pool of that size instead of serially).

    ``session`` threads a caller-owned :class:`Session` into the serial
    path -- the serve daemon passes its warm platform pool here so
    repeat jobs skip cold starts.  Pool and cluster backends ignore it
    (their workers own per-process sessions)."""
    if retry is None and (max_retries is not None or cell_timeout is not None):
        retry = RetryPolicy(
            max_attempts=(max_retries if max_retries is not None else 2) + 1,
            cell_timeout=cell_timeout,
        )
    if cluster:
        options: dict = {}
        if retry is not None:
            options["retry"] = retry
        if heartbeat_timeout is not None:
            options["heartbeat_timeout"] = heartbeat_timeout
        if worker_procs is not None and worker_procs > 1:
            options["worker_procs"] = worker_procs
        from repro.cluster.coordinator import ClusterExecutor

        return ClusterExecutor(
            workers=cluster,
            launcher=launcher,
            cache_dir=cache_dir,
            **options,
        )
    if workers <= 1:
        executor: Executor = SerialExecutor(session, retry=retry)
    else:
        executor = ParallelExecutor(workers=workers, retry=retry)
    if cache_dir is not None:
        return CachingExecutor(cache_dir, executor)
    return executor
