"""The cluster coordinator: deterministic shards, a content-addressed
result bus, and bounded retries around disposable worker agents.

:class:`ClusterExecutor` is an :class:`~repro.api.executor.Executor`
backend, so it holds the seam's core contract: a multi-worker cluster
sweep returns results **in spec order** whose canonical JSON is
**byte-identical** to :class:`~repro.api.executor.SerialExecutor` on
the same grid.  The design makes that property structural rather than
carefully maintained:

* Cells are partitioned by spec digest (:func:`shard_by_digest`) --
  placement is a pure function of content, never of timing.
* Workers do not return results over the wire.  They land canonical
  result JSON in the shared cache directory (the *result bus*, the same
  store :class:`~repro.api.executor.CachingExecutor` reads) and merely
  report that a digest landed.
* After the distributed phase, the coordinator merges by running a
  ``CachingExecutor`` over the full spec list against the bus: every
  landed cell is a byte-identical cache hit in spec order, and any cell
  the cluster failed to produce (all retries exhausted, every worker
  dead) is computed locally -- the sweep *degrades* to serial, it never
  returns partial results.

Failure handling: workers heartbeat; one that exits (crash, SIGKILL) or
goes silent past the timeout is declared dead, its unfinished cells are
re-queued to surviving workers with a bounded per-cell retry budget,
and cells over budget fall through to the local merge pass.  Because a
retried cell's result may already have landed (the first attempt died
*after* the atomic rename), every retry starts with a bus lookup -- a
straggler re-dispatch is a free cache hit, never duplicated work.

With a :class:`~repro.resilience.RetryPolicy` the same machinery gains
per-cell wall-clock deadlines (a cell running past ``cell_timeout``
gets its hosting worker killed -- the process boundary, not
cooperation, ends a wedged simulation -- and re-queues) and
deterministic digest-derived backoff on every re-queue.  A ``stop``
event (:class:`~repro.resilience.GracefulShutdown`) drains the cluster:
workers get SIGTERM, finish and land their in-flight cell, and the run
raises :class:`~repro.resilience.SweepInterrupted` with everything
durable on the bus for ``repro sweep --resume``.

Telemetry: forwarded worker events feed the coordinator's ``on_event``
callback with the standard shapes (grid-indexed ``cell_start``/
``cell_done``/``cache_*`` with the executing worker's pid, which the
trace layer maps to per-worker tracks), plus cluster-specific
``worker_heartbeat`` and ``worker_dead`` events for progress accounting
and per-worker RSS gauges.
"""

from __future__ import annotations

import queue as queue_mod
import shutil
import tempfile
import threading
import time
from pathlib import Path
from typing import Sequence

from repro.api.executor import (
    CachingExecutor,
    OnEvent,
    OnResult,
    SerialExecutor,
    _cell_event,
    _emitter,
    _safe_emit,
    shard_by_digest,
)
from repro.api.result import ExperimentResult
from repro.api.spec import ExperimentSpec
from repro.cluster.launchers import Launcher, LocalLauncher, parse_launcher
from repro.resilience.retry import RetryPolicy
from repro.resilience.shutdown import SweepInterrupted
from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    dumps_line,
    parse_line,
    shard_message,
)


class _Agent:
    """Coordinator-side handle for one worker process.

    A dedicated writer thread drains ``outbox`` into the worker's stdin
    so the monitor loop never blocks on a full pipe, and a reader
    thread parses everything the worker says.  ``assigned`` tracks the
    cell indices this worker owes; the health loop re-queues them if
    the worker dies.
    """

    def __init__(self, wid: int, proc) -> None:
        self.wid = wid
        self.proc = proc
        self.pid: "int | None" = getattr(proc, "pid", None)
        self.assigned: set[int] = set()
        self.last_seen = time.monotonic()
        self.dead = False
        self.protocol_ok = True
        self.outbox: "queue_mod.Queue[dict | None]" = queue_mod.Queue()
        self.reader: "threading.Thread | None" = None
        self.writer: "threading.Thread | None" = None

    def send(self, message: dict) -> None:
        self.outbox.put(message)

    def close_outbox(self) -> None:
        self.outbox.put(None)


class ClusterExecutor:
    """Shards a spec list across worker agents over a result bus.

    Args:
        workers: number of worker agents to launch.
        launcher: transport (default :class:`LocalLauncher`; also
            accepts a CLI spec string like ``"ssh:host1,host2"``).
        cache_dir: the shared result bus directory.  ``None`` uses a
            private temporary directory torn down after the run (fine
            for localhost; ssh workers need a shared path).
        engine: digest-neutral cycle engine the workers run.  ``None``
            infers a uniform ``spec.engine`` from the batch, else the
            default -- mirroring how process-pool workers fall back
            because canonical spec JSON deliberately omits the engine.
        max_retries: re-dispatch budget per cell before it falls back
            to the local merge pass.
        heartbeat_interval: worker beacon period (seconds).
        heartbeat_timeout: silence beyond this marks a worker hung and
            re-queues its cells (default: ``max(15, 10 * interval)``).
        retry: a :class:`repro.resilience.RetryPolicy` unifying the
            re-dispatch budget (``max_attempts = max_retries + 1``),
            deterministic backoff delays on re-queue, and a per-cell
            wall-clock deadline -- a cell running past
            ``retry.cell_timeout`` gets its hosting worker killed (the
            process boundary is the only reliable way to stop a wedged
            simulation) and re-queues with the usual budget.
        worker_procs: sub-process pool size *inside* each worker agent
            (``repro worker --workers N``): the agent runs its shard
            through a supervised :class:`ParallelExecutor` against the
            bus instead of serially, multiplying fan-out to
            ``workers x worker_procs`` processes.  1 keeps the classic
            serial agent.
    """

    def __init__(
        self,
        workers: int = 2,
        launcher: "Launcher | str | None" = None,
        cache_dir: "str | Path | None" = None,
        *,
        engine: "str | None" = None,
        max_retries: int = 2,
        heartbeat_interval: float = 2.0,
        heartbeat_timeout: "float | None" = None,
        retry: "RetryPolicy | None" = None,
        worker_procs: int = 1,
    ) -> None:
        if workers < 1:
            raise ValueError("workers must be at least 1")
        if worker_procs < 1:
            raise ValueError("worker_procs must be at least 1")
        self.workers = workers
        self.worker_procs = worker_procs
        self.launcher = parse_launcher(launcher)
        self.cache_dir = cache_dir
        self.engine = engine
        self.retry = retry
        self.max_retries = (
            retry.max_attempts - 1 if retry is not None else max_retries
        )
        self.heartbeat_interval = heartbeat_interval
        self.heartbeat_timeout = (
            heartbeat_timeout
            if heartbeat_timeout is not None
            else max(15.0, heartbeat_interval * 10.0)
        )
        #: stats of the most recent :meth:`run` (logs and tests)
        self.last_worker_deaths = 0
        self.last_requeued = 0
        self.last_fallback = 0
        self.last_timeouts = 0
        # per-run working state (set by _run_distributed)
        self._spec_dict_cache: "list[dict]" = []
        self._digest_cache: "list[str]" = []
        self._label_cache: "list[str]" = []
        self._emit_lock = threading.Lock()

    # ------------------------------------------------------------------
    def run(
        self,
        specs: Sequence[ExperimentSpec],
        *,
        on_event: "OnEvent | None" = None,
        stop: "threading.Event | None" = None,
        on_result: "OnResult | None" = None,
    ) -> list[ExperimentResult]:
        specs = list(specs)
        if not specs:
            return []
        emit = _emitter(on_event)
        self.last_worker_deaths = 0
        self.last_requeued = 0
        self.last_fallback = 0
        self.last_timeouts = 0
        owns_bus = self.cache_dir is None
        bus = (
            Path(tempfile.mkdtemp(prefix="repro-cluster-"))
            if owns_bus
            else Path(self.cache_dir)
        )
        try:
            landed = self._run_distributed(specs, bus, emit, stop)
            if stop is not None and stop.is_set():
                # drained: every in-flight cell finished and landed;
                # skipping the merge keeps the exit fast and resumable
                raise SweepInterrupted(done=len(landed), total=len(specs))
            return self._merge(specs, bus, landed, emit, stop, on_result)
        finally:
            if owns_bus:
                shutil.rmtree(bus, ignore_errors=True)

    # ------------------------------------------------------------------
    # distributed phase
    # ------------------------------------------------------------------
    def _worker_args(self, bus: Path, wid: int, engine: "str | None") -> list:
        args = [
            "--cache-dir",
            str(bus),
            "--worker-id",
            str(wid),
            "--heartbeat",
            str(self.heartbeat_interval),
        ]
        if engine is not None:
            args += ["--engine", engine]
        if self.worker_procs > 1:
            args += ["--workers", str(self.worker_procs)]
        return args

    def _batch_engine(self, specs: list) -> "str | None":
        """The engine workers should run: explicit wins, else a uniform
        per-spec engine (engines are digest-neutral, so this only keeps
        performance comparisons honest, never correctness)."""
        if self.engine is not None:
            return self.engine
        engines = {spec.engine for spec in specs}
        if len(engines) == 1:
            return engines.pop()
        return None

    def _run_distributed(
        self, specs: list, bus: Path, emit, stop=None
    ) -> set[int]:
        from repro import obs

        total = len(specs)
        st: dict = {
            "lock": threading.Lock(),
            "landed": set(),     # indices with durable bus results
            "retries": {},       # index -> requeue count
            "abandoned": set(),  # budget spent; merge computes locally
            "pending": [],       # (ready_at, index, spec_dict) backoffs
            "running": {},       # index -> (agent, started_monotonic)
        }
        engine = self._batch_engine(specs)
        spec_dicts = [spec.to_dict() for spec in specs]
        self._spec_dict_cache = spec_dicts
        self._digest_cache = [spec.digest() for spec in specs]
        self._label_cache = [spec.label() for spec in specs]

        shards = shard_by_digest(specs, self.workers)
        agents: list[_Agent] = []
        for wid, shard in enumerate(shards):
            agent = self._launch(wid, bus, engine)
            agents.append(agent)
            self._start_io(agent, st, emit)
            if not agent.dead and shard:
                cells = [(index, spec_dicts[index]) for index, _ in shard]
                with st["lock"]:
                    agent.assigned |= {index for index, _ in shard}
                agent.send(shard_message(cells, total))

        obs.gauge("cluster.workers_alive").set(
            sum(1 for a in agents if not a.dead)
        )
        lock = st["lock"]
        landed, abandoned, pending = (
            st["landed"], st["abandoned"], st["pending"],
        )
        try:
            while True:
                with lock:
                    outstanding = total - len(landed) - len(abandoned)
                    if outstanding <= 0:
                        break
                if stop is not None and stop.is_set():
                    # graceful drain: SIGTERM asks each worker to stop
                    # *between* cells -- in-flight cells finish and land
                    # before the worker exits (see run_worker)
                    for agent in agents:
                        if not agent.dead:
                            try:
                                agent.proc.terminate()
                            except OSError:
                                pass
                    break
                now = time.monotonic()
                for agent in agents:
                    if agent.dead:
                        continue
                    exited = agent.proc.poll() is not None
                    hung = (
                        now - agent.last_seen > self.heartbeat_timeout
                    ) or not agent.protocol_ok
                    if exited or hung:
                        self._declare_dead(agent, st, emit, kill=not exited)
                        obs.gauge("cluster.workers_alive").set(
                            sum(1 for a in agents if not a.dead)
                        )
                if (
                    self.retry is not None
                    and self.retry.cell_timeout is not None
                ):
                    if self._enforce_deadlines(st, emit):
                        obs.gauge("cluster.workers_alive").set(
                            sum(1 for a in agents if not a.dead)
                        )
                alive = [a for a in agents if not a.dead]
                with lock:
                    now = time.monotonic()
                    requeue = [(i, d) for (t, i, d) in pending if t <= now]
                    if alive:
                        pending[:] = [
                            (t, i, d) for (t, i, d) in pending if t > now
                        ]
                    else:
                        # backoff delays are moot with nobody to run them
                        requeue += [(i, d) for (t, i, d) in pending if t > now]
                        pending[:] = []
                if requeue:
                    if alive:
                        target = min(alive, key=lambda a: len(a.assigned))
                        with lock:
                            target.assigned |= {i for i, _ in requeue}
                        target.send(shard_message(requeue, total))
                    else:
                        # nobody left to run them: the merge pass will
                        with lock:
                            abandoned.update(i for i, _ in requeue)
                        continue
                if not alive:
                    with lock:
                        remaining = (
                            set(range(total)) - landed - abandoned
                        )
                        abandoned |= remaining
                    break
                time.sleep(0.05)
        finally:
            self._shutdown(agents)
        with lock:
            return set(landed)

    def _launch(self, wid: int, bus: Path, engine: "str | None") -> _Agent:
        try:
            proc = self.launcher.launch(
                wid, self._worker_args(bus, wid, engine)
            )
        except OSError as exc:
            from repro.api.executor import logger

            logger.warning("cluster worker %d failed to launch: %s", wid, exc)
            agent = _Agent(wid, _DeadProc())
            agent.dead = True
            return agent
        return _Agent(wid, proc)

    def _start_io(self, agent, st, emit) -> None:
        if agent.dead:
            return
        agent.reader = threading.Thread(
            target=self._read_loop,
            args=(agent, st, emit),
            name=f"repro-cluster-read-{agent.wid}",
            daemon=True,
        )
        agent.writer = threading.Thread(
            target=self._write_loop,
            args=(agent,),
            name=f"repro-cluster-write-{agent.wid}",
            daemon=True,
        )
        agent.reader.start()
        agent.writer.start()

    def _write_loop(self, agent: _Agent) -> None:
        stdin = agent.proc.stdin
        while True:
            message = agent.outbox.get()
            if message is None:
                break
            try:
                stdin.write(dumps_line(message) + "\n")
                stdin.flush()
            except (OSError, ValueError):
                break  # pipe gone; the health loop re-queues the cells
        try:
            stdin.close()
        except (OSError, ValueError):
            pass

    def _read_loop(self, agent, st, emit) -> None:
        try:
            for line in agent.proc.stdout:
                message = parse_line(line)
                if message is None:
                    continue
                agent.last_seen = time.monotonic()
                self._handle(agent, message, st, emit)
        except (OSError, ValueError):
            pass  # stream torn down mid-read (kill/shutdown race)

    def _handle(self, agent, message, st, emit) -> None:
        from repro import obs
        from repro.api.executor import logger

        lock = st["lock"]
        mtype = message.get("type")
        if mtype == "event":
            event = message.get("event")
            if isinstance(event, dict):
                # shadow the stream to know which agent runs which cell
                # right now -- the handle the deadline enforcer kills by
                etype = event.get("type")
                index = event.get("index")
                if isinstance(index, int):
                    if etype == "cell_start":
                        with lock:
                            st["running"][index] = (agent, time.monotonic())
                    elif etype in ("cell_done", "cache_hit"):
                        with lock:
                            st["running"].pop(index, None)
                self._forward(emit, event)
        elif mtype == "cell_result":
            index = message.get("index")
            with lock:
                if isinstance(index, int):
                    st["landed"].add(index)
                    st["running"].pop(index, None)
                agent.assigned.discard(index)
        elif mtype == "heartbeat":
            self._forward(
                emit,
                {
                    "type": "worker_heartbeat",
                    "worker": message.get("pid"),
                    "rss_kb": message.get("rss_kb", 0),
                    "t": message.get("t"),
                },
            )
        elif mtype == "cell_error":
            index = message.get("index")
            logger.warning(
                "cluster worker %d failed cell %s: %s",
                agent.wid, index, message.get("error"),
            )
            if isinstance(index, int):
                with lock:
                    agent.assigned.discard(index)
                    st["running"].pop(index, None)
                    self._requeue_locked(
                        [index], st, emit,
                        reason=str(message.get("error", "cell_error")),
                        cause="exception",
                    )
        elif mtype == "ready":
            agent.pid = message.get("pid", agent.pid)
            if message.get("protocol") != PROTOCOL_VERSION:
                logger.error(
                    "cluster worker %d speaks protocol %r, coordinator "
                    "speaks %r; dropping it",
                    agent.wid, message.get("protocol"), PROTOCOL_VERSION,
                )
                agent.protocol_ok = False
        elif mtype == "error":
            logger.warning(
                "cluster worker %d: %s", agent.wid, message.get("message")
            )
        elif mtype == "shard_done":
            obs.counter("cluster.shards_done").inc()
        # unknown message types are ignored: newer workers may gain
        # advisory messages without breaking older coordinators

    def _forward(self, emit, event: dict) -> None:
        # reader threads are per-worker; serialize delivery so on_event
        # consumers (progress state, trace writers) never interleave
        with self._emit_lock:
            _safe_emit(emit, event)

    def _cell_event(self, etype: str, index: int, **fields) -> dict:
        return _cell_event(
            etype, index, self._digest_cache[index],
            self._label_cache[index], **fields,
        )

    def _requeue_locked(
        self, indices, st, emit, reason: str = "worker died",
        cause: str = "worker_dead", timed_out=(),
    ) -> int:
        """Re-queue cells (caller holds the state lock); returns how
        many still had retry budget.  Re-queues carry a deterministic
        backoff delay when a :class:`RetryPolicy` is set, and each
        transition streams as ``cell_retry`` / ``cell_exhausted`` with
        its typed ``cause`` (``timeout`` for the cells in
        ``timed_out``)."""
        from repro import obs

        retries = st["retries"]
        requeued = 0
        for index in indices:
            retries[index] = retries.get(index, 0) + 1
            attempt = retries[index]
            why = "timeout" if index in timed_out else cause
            if attempt > self.max_retries:
                st["abandoned"].add(index)
                self._forward(emit, self._cell_event(
                    "cell_exhausted", index, attempt=attempt, error=reason,
                    cause=why,
                ))
            else:
                delay = (
                    self.retry.backoff(self._digest_cache[index], attempt)
                    if self.retry is not None
                    else 0.0
                )
                st["pending"].append(
                    (
                        time.monotonic() + delay,
                        index,
                        self._spec_dict_cache[index],
                    )
                )
                self._forward(emit, self._cell_event(
                    "cell_retry", index, attempt=attempt,
                    delay=round(delay, 6), error=reason, cause=why,
                ))
                requeued += 1
        if requeued:
            self.last_requeued += requeued
            obs.counter("cluster.cells_requeued").inc(requeued)
        return requeued

    def _enforce_deadlines(self, st, emit) -> bool:
        """Kill the worker hosting any cell past ``retry.cell_timeout``
        (SIGKILL works on SIGSTOPped processes too, so a *frozen* worker
        cannot dodge the deadline); its cells re-queue through the
        normal dead-worker path.  Returns whether anyone died."""
        from repro import obs

        timeout = self.retry.cell_timeout
        now = time.monotonic()
        with st["lock"]:
            over = [
                (index, agent)
                for index, (agent, t0) in st["running"].items()
                if now - t0 > timeout and index not in st["landed"]
            ]
        doomed: list = []
        timed_out: set = set()
        for index, agent in over:
            if agent.dead:
                continue
            self.last_timeouts += 1
            obs.counter("cluster.cell_timeouts").inc()
            self._forward(emit, self._cell_event(
                "cell_timeout", index, worker=agent.pid,
                attempt=st["retries"].get(index, 0) + 1, timeout=timeout,
                cause="timeout",
            ))
            with st["lock"]:
                st["running"].pop(index, None)
            timed_out.add(index)
            if agent not in doomed:
                doomed.append(agent)
        for agent in doomed:
            self._declare_dead(agent, st, emit, kill=True, timed_out=timed_out)
        return bool(doomed)

    def _declare_dead(self, agent, st, emit, kill: bool, timed_out=()) -> None:
        from repro import obs
        from repro.api.executor import logger

        agent.dead = True
        if kill:
            try:
                agent.proc.kill()
            except OSError:
                pass
        with st["lock"]:
            lost = sorted(agent.assigned - st["landed"])
            agent.assigned.clear()
            for index in [
                i for i, (a, _) in st["running"].items() if a is agent
            ]:
                st["running"].pop(index, None)
            self._requeue_locked(lost, st, emit, timed_out=timed_out)
        self.last_worker_deaths += 1
        obs.counter("cluster.worker_deaths").inc()
        logger.warning(
            "cluster worker %d (pid %s) died%s; re-queued %d unfinished "
            "cells", agent.wid, agent.pid,
            " (heartbeat timeout)" if kill else "", len(lost),
        )
        self._forward(
            emit,
            {
                "type": "worker_dead",
                "worker": agent.pid,
                "requeued": lost,
            },
        )

    def _shutdown(self, agents: list) -> None:
        for agent in agents:
            if agent.dead:
                agent.close_outbox()
                continue
            agent.send({"type": "shutdown"})
            agent.close_outbox()
        deadline = time.monotonic() + 5.0
        for agent in agents:
            if isinstance(agent.proc, _DeadProc):
                continue
            try:
                agent.proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except Exception:
                try:
                    agent.proc.kill()
                except OSError:
                    pass
            if agent.reader is not None:
                agent.reader.join(timeout=2.0)
            if agent.writer is not None:
                agent.writer.join(timeout=2.0)

    # ------------------------------------------------------------------
    # merge phase
    # ------------------------------------------------------------------
    def _merge(
        self, specs: list, bus: Path, landed: set, emit,
        stop=None, on_result=None,
    ) -> list[ExperimentResult]:
        """Collect results from the bus in spec order.

        Every landed cell is a byte-identical cache hit; anything the
        cluster failed to land is computed locally here, so the sweep
        degrades to serial instead of failing or going partial.  The
        event filter keeps telemetry coherent: landed cells already
        streamed their events from workers, so only locally-computed
        fallback cells may emit again.
        """
        from repro import obs

        fallback = {i for i in range(len(specs)) if i not in landed}
        self.last_fallback = len(fallback)
        if fallback:
            obs.counter("cluster.cells_fallback").inc(len(fallback))
        merge_emit = None
        if emit is not None and fallback:
            def merge_emit(event: dict) -> None:
                if event.get("index") in fallback:
                    emit(event)

        merged = CachingExecutor(bus, SerialExecutor(retry=self.retry))
        results = merged.run(
            specs, on_event=merge_emit, stop=stop, on_result=on_result
        )
        return results


class _DeadProc:
    """Placeholder process for a worker that never launched."""

    pid = None
    stdin = None
    stdout = ()

    def poll(self) -> int:
        return -1

    def wait(self, timeout=None) -> int:
        return -1

    def kill(self) -> None:
        pass

    def terminate(self) -> None:
        pass
