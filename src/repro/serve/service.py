"""The always-on campaign service: admission, execution, recovery.

:class:`CampaignService` composes the primitives earlier layers built
-- the content-addressed result bus, :class:`~repro.resilience.RetryPolicy`,
the atomic :class:`~repro.resilience.SweepJournal`, ``fsck`` -- into a
long-running daemon whose design center is *robustness*:

* **Admission control.**  The job queue is bounded and each client has
  an in-flight cap; past either limit :meth:`submit` raises
  :class:`QueueFull` (503) or :class:`ClientBusy` (429) carrying a
  ``Retry-After`` estimate, so overload sheds load instead of accepting
  unbounded work.  Identical campaigns dedupe to one job by content
  digest, making resubmission free and idempotent.
* **Warm starts.**  All serial job execution shares one
  :class:`PooledSession` -- an LRU over mixed-mode platforms and their
  golden/snapshot chains -- so repeat campaigns skip the cold start
  that dominates small jobs.
* **Crash safety.**  Every job's progress lives in a
  :class:`~repro.resilience.SweepJournal` against the shared bus.  On
  startup the service runs ``fsck --repair`` over the bus, reloads job
  manifests, and re-enqueues interrupted jobs; their landed cells
  replay as byte-identical cache hits and only unlanded cells
  recompute -- the same guarantee ``repro sweep --resume`` proves.
* **Supervision.**  A supervisor thread relaunches dead runner threads
  (executor cells below them are already supervised by
  :class:`~repro.resilience.supervisor.CellSupervisor`), enforces per-job
  deadlines, and refreshes obs gauges.  Jobs run through
  :func:`~repro.api.run_campaign`; crash detection is typed -- when a
  ``worker_dead`` event or cause shows a worker died (never a mere
  raising cell), the bus is fsck'd before the next job runs.
* **Graceful drain.**  :meth:`drain` stops admitting (``/readyz`` goes
  503), interrupts running jobs *between* cells, and re-queues them
  durably -- a drained daemon restarts exactly where it left off.

Digest-neutrality: everything here is operational state.  Serving a
campaign over HTTP, from a warm pool, after three crashes, yields the
same canonical bytes as ``repro sweep`` in a fresh process.  The daemon
runs the default cycle engine: engine choice is an in-process setting
of :class:`~repro.api.session.Session`, never a service option or part
of a request.
"""

from __future__ import annotations

import math
import threading
import time
from collections import OrderedDict, deque
from pathlib import Path

from repro.api.executor import make_executor, run_campaign
from repro.api.result import sweep_document
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.obs.progress import ProgressState
from repro.resilience import RetryPolicy, fsck_cache
from repro.serve.state import Job, JobStore, job_id_for, normalize_request


class AdmissionError(Exception):
    """A submission the service refuses right now.  ``status`` is the
    HTTP code the transport should answer with and ``retry_after`` the
    seconds a well-behaved client should wait before retrying."""

    status = 503

    def __init__(self, message: str, retry_after: int = 1) -> None:
        super().__init__(message)
        self.retry_after = max(1, int(retry_after))


class QueueFull(AdmissionError):
    """The bounded job queue is at capacity (503)."""

    status = 503


class ClientBusy(AdmissionError):
    """The client is at its in-flight cap (429)."""

    status = 429


class Draining(AdmissionError):
    """The service is shutting down and admits nothing new (503)."""

    status = 503


class UnknownJob(KeyError):
    """No job with that id."""


class PooledSession(Session):
    """A :class:`Session` whose platform cache is a bounded LRU.

    Platforms (and the golden runs + snapshot chains they own) are the
    expensive state a daemon must keep warm *and* must not hoard
    unboundedly: each one holds full memory images.  ``capacity`` caps
    the pool; the least-recently-used platform is evicted when a new
    one would exceed it.  Hit/miss/eviction tallies feed ``/stats``.
    """

    def __init__(self, capacity: int = 8) -> None:
        super().__init__()
        if capacity < 1:
            raise ValueError("capacity must be at least 1")
        self.capacity = capacity
        self._platforms: OrderedDict = OrderedDict()
        self.pool_hits = 0
        self.pool_misses = 0
        self.pool_evictions = 0
        self._lock = threading.Lock()

    def platform(self, spec: ExperimentSpec):
        key = spec.platform_key()
        with self._lock:
            cached = self._platforms.get(key)
            if cached is not None:
                self._platforms.move_to_end(key)
                self.pool_hits += 1
                return cached
            self.pool_misses += 1
        # build outside the lock: platform construction is the expensive
        # golden run and must not serialize against pool bookkeeping
        platform = self._build(spec)
        with self._lock:
            self._platforms[key] = platform
            self._platforms.move_to_end(key)
            while len(self._platforms) > self.capacity:
                self._platforms.popitem(last=False)
                self.pool_evictions += 1
        return platform

    def pool_stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "platforms": len(self._platforms),
                "hits": self.pool_hits,
                "misses": self.pool_misses,
                "evictions": self.pool_evictions,
            }


class CampaignService:
    """The daemon core behind ``repro serve`` (transport-agnostic:
    the HTTP layer in :mod:`repro.serve.http` is one thin client)."""

    def __init__(
        self,
        state_dir: "str | Path",
        cache_dir: "str | Path | None" = None,
        *,
        queue_limit: int = 8,
        per_client_limit: int = 2,
        runners: int = 1,
        workers: int = 1,
        warm_platforms: int = 8,
        retry: "RetryPolicy | None" = None,
        job_timeout: "float | None" = None,
        fsck_on_start: bool = True,
        before_job=None,
    ) -> None:
        self.state_dir = Path(state_dir)
        self.bus = (
            Path(cache_dir) if cache_dir is not None
            else self.state_dir / "bus"
        )
        self.queue_limit = max(1, queue_limit)
        self.per_client_limit = max(1, per_client_limit)
        self.runners = max(1, runners)
        self.workers = max(1, workers)
        self.retry = retry if retry is not None else RetryPolicy(
            max_attempts=2, backoff_base=0.05
        )
        self.job_timeout = job_timeout
        self.fsck_on_start = fsck_on_start
        #: test/chaos instrumentation: called with the job right after
        #: it is claimed (status ``running``) and before any cell runs.
        self.before_job = before_job

        self.store = JobStore(self.state_dir / "jobs", self.bus)
        self.session = PooledSession(capacity=max(1, warm_platforms))
        self.started_at = time.monotonic()

        self._lock = threading.Lock()
        self._wake = threading.Condition(self._lock)
        self._queue: deque[str] = deque()
        self._stops: dict[str, threading.Event] = {}
        self._cancelled: set[str] = set()
        self._timed_out: set[str] = set()
        self._active: dict[str, str] = {}  # runner name -> job id
        self._draining = False
        self._closed = False
        self._threads: list[threading.Thread] = []
        self._supervisor: "threading.Thread | None" = None
        self._runner_ids = 0
        #: service counters (``/stats`` adds the job ledgers' tallies)
        self.counters = {
            "jobs_done": 0,
            "jobs_failed": 0,
            "jobs_cancelled": 0,
            "rejected_busy": 0,
            "rejected_full": 0,
            "rejected_draining": 0,
            "deduped": 0,
            "fsck_runs": 0,
            "fsck_quarantined": 0,
            "runner_relaunches": 0,
        }
        self.recovered: dict = {"jobs": 0, "damaged": [], "fsck": None}
        self._ledgers: dict[str, ProgressState] = {}  # running job -> ledger
        self._cell_totals = ProgressState().tally  # finished jobs

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    def start(self) -> None:
        """Recover durable state, then launch runners + supervisor."""
        self.bus.mkdir(parents=True, exist_ok=True)
        if self.fsck_on_start:
            self.recovered["fsck"] = self._fsck()
        damaged = self.store.load_all()
        self.recovered["damaged"] = damaged
        with self._lock:
            for job in self.store.recoverable():
                # reconcile against the bus before re-queueing so the
                # manifest reflects what actually landed pre-crash
                if job.status == "running":
                    job.status = "queued"
                    job.resumes += 1
                    try:
                        journal = self.store.journal(job)
                        journal.reconcile(job.specs())
                    except (FileNotFoundError, ValueError, KeyError):
                        pass  # the run itself will rebuild/complain
                    self.store.save(job)
                self._stops[job.id] = threading.Event()
                self._queue.append(job.id)
                self.recovered["jobs"] += 1
        for _ in range(self.runners):
            self._spawn_runner()
        self._supervisor = threading.Thread(
            target=self._supervise, name="repro-serve-supervisor", daemon=True
        )
        self._supervisor.start()

    def _spawn_runner(self) -> None:
        self._runner_ids += 1
        thread = threading.Thread(
            target=self._runner_loop,
            name=f"repro-serve-runner-{self._runner_ids}",
            daemon=True,
        )
        self._threads.append(thread)
        thread.start()

    def drain(self, timeout: "float | None" = 30.0) -> None:
        """Stop admitting, interrupt running jobs between cells, and
        re-queue them durably.  Idempotent; returns once the runner
        threads exit (or the timeout passes)."""
        with self._lock:
            self._draining = True
            for stop in self._stops.values():
                stop.set()
            self._wake.notify_all()
        deadline = (
            time.monotonic() + timeout if timeout is not None else None
        )
        for thread in self._threads:
            remaining = None
            if deadline is not None:
                remaining = max(0.0, deadline - time.monotonic())
            thread.join(timeout=remaining)

    def close(self, timeout: "float | None" = 30.0) -> None:
        """Drain and stop the supervisor (the test/embedding exit)."""
        self.drain(timeout=timeout)
        with self._lock:
            self._closed = True
            self._wake.notify_all()
        if self._supervisor is not None:
            self._supervisor.join(timeout=5.0)

    @property
    def draining(self) -> bool:
        return self._draining

    # ------------------------------------------------------------------
    # admission
    # ------------------------------------------------------------------
    def submit(
        self, request: dict, client: "str | None" = None
    ) -> "tuple[Job, bool]":
        """Admit one campaign; returns ``(job, created)``.

        Dedupe comes first: a request whose normalized content digest
        matches a queued, running, or done job attaches to it without
        consuming queue budget (resubmission is how clients poll-safely
        re-ask for results).  ``failed``/``cancelled`` jobs resubmit
        through normal admission and re-enter the queue.
        """
        payload, specs = normalize_request(request)
        job_id = job_id_for(payload)
        with self._lock:
            existing = self.store.jobs.get(job_id)
            if existing is not None and existing.status in (
                "queued", "running", "done"
            ):
                self.counters["deduped"] += 1
                return existing, False
            if self._draining:
                self.counters["rejected_draining"] += 1
                raise Draining("service is draining", retry_after=5)
            if len(self._queue) >= self.queue_limit:
                self.counters["rejected_full"] += 1
                raise QueueFull(
                    f"job queue is full ({self.queue_limit})",
                    retry_after=self._retry_after_locked(),
                )
            key = client or "anon"
            in_flight = sum(
                1 for job in self.store.jobs.values()
                if (job.client or "anon") == key
                and job.status in ("queued", "running")
            )
            if in_flight >= self.per_client_limit:
                self.counters["rejected_busy"] += 1
                raise ClientBusy(
                    f"client {key!r} already has {in_flight} jobs in "
                    f"flight (limit {self.per_client_limit})",
                    retry_after=self._retry_after_locked(),
                )
            if existing is not None:
                # failed/cancelled resubmission: same identity, fresh run
                job = existing
                job.status = "queued"
                job.error = None
                job.finished = None
                job.resumes += 1
                job.client = client
                self.store.save(job)
            else:
                job = self.store.create(
                    job_id, payload, specs, client=client
                )
            self._cancelled.discard(job_id)
            self._timed_out.discard(job_id)
            self._stops[job_id] = threading.Event()
            self._queue.append(job_id)
            self._wake.notify()
        return job, existing is None

    def _retry_after_locked(self) -> int:
        """A Retry-After estimate from observed job times: roughly one
        queue-drain's worth of seconds, clamped to [1, 120]."""
        durations = [
            job.run_seconds for job in self.store.jobs.values()
            if job.run_seconds is not None
        ]
        mean = (
            sum(durations) / len(durations) if durations else 1.0
        )
        outstanding = len(self._queue) + len(self._active) + 1
        return int(min(120, max(1, math.ceil(mean * outstanding))))

    def cancel(self, job_id: str) -> Job:
        """Cancel a queued or running job (running jobs stop between
        cells; their landed results stay durable on the bus)."""
        with self._lock:
            job = self.store.jobs.get(job_id)
            if job is None:
                raise UnknownJob(job_id)
            if job.status == "queued":
                try:
                    self._queue.remove(job_id)
                except ValueError:
                    pass
                job.status = "cancelled"
                job.finished = round(time.time(), 6)
                self.counters["jobs_cancelled"] += 1
                self.store.save(job)
            elif job.status == "running":
                self._cancelled.add(job_id)
                stop = self._stops.get(job_id)
                if stop is not None:
                    stop.set()
        return job

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def job(self, job_id: str) -> Job:
        job = self.store.jobs.get(job_id)
        if job is None:
            raise UnknownJob(job_id)
        return job

    def job_view(self, job: Job) -> dict:
        """The job manifest plus live journal counts (landed cells are
        read from the durable journal, so the view is restart-stable)."""
        view = job.to_dict()
        try:
            counts = self.store.journal(job).counts()
        except (FileNotFoundError, ValueError):
            counts = None
        view["journal"] = counts
        view["landed"] = counts["landed"] if counts else None
        return view

    def result_payload(self, job_id: str) -> "bytes | None":
        """The job's canonical result document -- byte-identical to
        ``repro sweep --json`` over the same grid.

        Materialized from the bus through the caching executor (all
        hits for a ``done`` job), so a restarted daemon serves exactly
        the bytes the original run produced.  ``None`` while the job is
        not ``done``.
        """
        job = self.job(job_id)
        if job.status != "done":
            return None
        specs = job.specs()
        executor = make_executor(
            cache_dir=str(self.bus), session=self.session
        )
        results = executor.run(specs)
        return (sweep_document(job.grid, results) + "\n").encode("utf-8")

    def stats(self) -> dict:
        """Operational state for ``/stats`` (everything a fleet
        dashboard or the chaos suite wants in one read)."""
        with self._lock:
            by_status: dict[str, int] = {}
            for job in self.store.jobs.values():
                by_status[job.status] = by_status.get(job.status, 0) + 1
            doc = {
                "uptime_seconds": round(
                    time.monotonic() - self.started_at, 3
                ),
                "draining": self._draining,
                "queue": {
                    "depth": len(self._queue),
                    "limit": self.queue_limit,
                    "running": len(self._active),
                    "runners": self.runners,
                    "per_client_limit": self.per_client_limit,
                },
                "jobs": by_status,
                "counters": {**self.counters, **self._cell_counters_locked()},
                "warm_pool": self.session.pool_stats(),
                "bus": str(self.bus),
                "recovered": dict(self.recovered),
            }
        done = doc["counters"]["cells_done"] + doc["counters"]["cache_hits"]
        doc["cells_per_sec"] = round(
            done / doc["uptime_seconds"], 3
        ) if doc["uptime_seconds"] > 0 else 0.0
        return doc

    def _cell_counters_locked(self) -> dict:
        """Per-cell counters summed over every job's cell ledger
        (finished jobs plus the ones running now)."""
        totals = dict(self._cell_totals)
        for ledger in self._ledgers.values():
            for name, value in ledger.tally.items():
                totals[name] += value
        return totals

    def update_registry(self) -> None:
        """Mirror live state into the obs registry (``/metrics`` and
        ``repro top URL`` read the standard snapshot shape)."""
        from repro import obs

        if not obs.enabled():
            return
        with self._lock:
            obs.gauge("serve.queue_depth").set(len(self._queue))
            obs.gauge("serve.jobs_running").set(len(self._active))
            obs.gauge("serve.draining").set(1 if self._draining else 0)
            counters = {**self.counters, **self._cell_counters_locked()}
            for name, value in counters.items():
                obs.gauge(f"serve.{name}").set(value)
            pool = self.session.pool_stats()
        obs.gauge("serve.warm_platforms").set(pool["platforms"])
        obs.gauge("serve.warm_hits").set(pool["hits"])
        obs.gauge("serve.warm_evictions").set(pool["evictions"])

    # ------------------------------------------------------------------
    # execution
    # ------------------------------------------------------------------
    def _runner_loop(self) -> None:
        name = threading.current_thread().name
        while True:
            with self._lock:
                while not self._queue and not self._draining:
                    self._wake.wait(timeout=0.5)
                if self._draining:
                    return
                job_id = self._queue.popleft()
                job = self.store.jobs.get(job_id)
                if job is None or job.status != "queued":
                    continue
                job.status = "running"
                job.started = round(time.time(), 6)
                self._active[name] = job_id
                self.store.save(job)
            # no try/finally: if _run_job dies (it catches Exception, so
            # only BaseException kills it), the _active entry survives
            # as the tombstone _reap_runners uses to fail the orphan job
            self._run_job(job)
            with self._lock:
                self._active.pop(name, None)
                self._wake.notify_all()

    def _run_job(self, job: Job) -> None:
        stop = self._stops.setdefault(job.id, threading.Event())
        if self.before_job is not None:
            try:
                self.before_job(job)
            except Exception:
                pass  # instrumentation must never break a job
        try:
            specs = job.specs()
            journal = self.store.journal(job)
            journal.reconcile(specs)
        except Exception as exc:
            self._finish_failed(job, f"{type(exc).__name__}: {exc}")
            return
        executor = make_executor(
            workers=self.workers,
            cache_dir=str(self.bus),
            retry=self.retry,
            session=self.session,
        )
        ledger = ProgressState(total=len(specs))
        with self._lock:
            self._ledgers[job.id] = ledger
        t0 = time.monotonic()
        try:
            outcome = run_campaign(
                executor, specs, journal=journal, stop=stop, ledger=ledger
            )
        except Exception as exc:  # a broken job must not kill its runner
            self._finish_failed(
                job, f"{type(exc).__name__}: {exc}", fsck=True
            )
            return
        finally:
            with self._lock:
                del self._ledgers[job.id]
                for name, value in ledger.tally.items():
                    self._cell_totals[name] += value
        if outcome.status == "interrupted":
            self._finish_interrupted(job)
            return
        if outcome.status == "failed":
            self._finish_failed(
                job, str(outcome.failure), fsck=outcome.worker_dead
            )
            return
        job.run_seconds = round(time.monotonic() - t0, 6)
        job.hits = getattr(executor, "last_hits", 0)
        job.misses = getattr(executor, "last_misses", 0)
        job.stale = getattr(executor, "last_stale", 0)
        job.status = "done"
        job.error = None
        job.finished = round(time.time(), 6)
        with self._lock:
            self.counters["jobs_done"] += 1
        self.store.save(job)
        if outcome.worker_dead:
            # the run recovered, but a worker died along the way: audit
            # the bus before the next job trusts it
            self._fsck()
        self.update_registry()

    def _finish_interrupted(self, job: Job) -> None:
        """A stop event fired: cancel, deadline, or drain -- in that
        order of precedence."""
        with self._lock:
            cancelled = job.id in self._cancelled
            timed_out = job.id in self._timed_out
            self._cancelled.discard(job.id)
            self._timed_out.discard(job.id)
        if cancelled:
            job.status = "cancelled"
            job.finished = round(time.time(), 6)
            with self._lock:
                self.counters["jobs_cancelled"] += 1
        elif timed_out:
            job.status = "failed"
            job.error = (
                f"deadline exceeded (job_timeout={self.job_timeout}s); "
                f"landed cells remain durable"
            )
            job.finished = round(time.time(), 6)
            with self._lock:
                self.counters["jobs_failed"] += 1
        else:
            # drain: back to the durable queue; a restart resumes here
            job.status = "queued"
            job.resumes += 1
        self.store.save(job)

    def _finish_failed(
        self, job: Job, error: str, fsck: bool = False
    ) -> None:
        job.status = "failed"
        job.error = error
        job.finished = round(time.time(), 6)
        with self._lock:
            self.counters["jobs_failed"] += 1
        self.store.save(job)
        if fsck:
            self._fsck()

    def _fsck(self) -> "dict | None":
        """``repro cache fsck --repair`` over the bus (startup and
        after executor crashes): damaged entries are quarantined so no
        job ever trusts a torn result."""
        try:
            report = fsck_cache(self.bus, repair=True)
        except FileNotFoundError:
            return None
        with self._lock:
            self.counters["fsck_runs"] += 1
            self.counters["fsck_quarantined"] += len(report.quarantined)
        return report.to_dict()

    # ------------------------------------------------------------------
    # supervision
    # ------------------------------------------------------------------
    def _supervise(self) -> None:
        """Relaunch dead runners, enforce job deadlines, refresh obs."""
        while True:
            with self._lock:
                if self._closed:
                    return
                draining = self._draining
            if not draining:
                self._reap_runners()
                self._enforce_deadlines()
            self.update_registry()
            time.sleep(0.25)

    def _reap_runners(self) -> None:
        dead: list[threading.Thread] = []
        with self._lock:
            for thread in self._threads:
                if not thread.is_alive():
                    dead.append(thread)
            for thread in dead:
                self._threads.remove(thread)
                job_id = self._active.pop(thread.name, None)
                if job_id is not None:
                    job = self.store.jobs.get(job_id)
                    if job is not None and job.status == "running":
                        job.status = "failed"
                        job.error = "runner thread died mid-job"
                        job.finished = round(time.time(), 6)
                        self.counters["jobs_failed"] += 1
                        self.store.save(job)
        for thread in dead:
            with self._lock:
                self.counters["runner_relaunches"] += 1
            self._fsck()
            self._spawn_runner()

    def _enforce_deadlines(self) -> None:
        if self.job_timeout is None:
            return
        now = time.time()
        with self._lock:
            for job_id in list(self._active.values()):
                job = self.store.jobs.get(job_id)
                if job is None or job.started is None:
                    continue
                if now - job.started > self.job_timeout:
                    self._timed_out.add(job_id)
                    stop = self._stops.get(job_id)
                    if stop is not None:
                        stop.set()

    # ------------------------------------------------------------------
    # test/bench helpers
    # ------------------------------------------------------------------
    def wait_idle(self, timeout: float = 60.0) -> bool:
        """Block until the queue is empty and nothing is running (or
        the timeout passes); returns whether idle was reached."""
        deadline = time.monotonic() + timeout
        with self._lock:
            while self._queue or self._active:
                remaining = deadline - time.monotonic()
                if remaining <= 0:
                    return False
                self._wake.wait(timeout=min(0.2, remaining))
        return True
