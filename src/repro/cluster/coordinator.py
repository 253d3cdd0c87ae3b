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

Failure handling: one :class:`~repro.resilience.supervisor.CellSupervisor`
owns the policy -- attempt budget, digest-derived backoff, per-cell
deadlines -- exactly as for the serial and pool backends.  The
coordinator supplies only the transport.  Workers heartbeat; one that
exits (crash, SIGKILL, failed launch) or goes silent past the timeout
is declared dead and its unfinished cells are billed ``worker_dead``.
A cell past ``cell_timeout`` gets its hosting worker killed -- the
process boundary, not cooperation, ends a wedged simulation.  A cell
that failed inside an agent arrives as a typed ``cell_error``.  Cells
the supervisor re-queues go to the least-loaded surviving worker, and
cells over budget fall through to the local merge pass.  Because a
retried cell's result may already have landed (the first attempt died
*after* the atomic rename), every retry starts with a bus lookup -- a
straggler re-dispatch is a free cache hit, never duplicated work.  A ``stop``
event (:class:`~repro.resilience.GracefulShutdown`) drains the cluster:
workers get SIGTERM, finish and land their in-flight cell, and the run
raises :class:`~repro.resilience.SweepInterrupted` with everything
durable on the bus for ``repro sweep --resume``.

Telemetry: forwarded worker events feed the coordinator's ``on_event``
callback with the standard shapes (grid-indexed ``cell_start``/
``cell_done``/``cache_*`` with the executing worker's pid, which the
trace layer maps to per-worker tracks; a ``cell_done`` is emitted only
once the cell's ``cell_result`` ack arrived, so the ledger never calls
a cell landed ahead of the bus), plus cluster-specific
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
    _emitter,
    shard_by_digest,
)
from repro.api.result import ExperimentResult
from repro.api.spec import ExperimentSpec
from repro.cluster.launchers import Launcher, LocalLauncher, parse_launcher
from repro.obs.progress import CAUSES
from repro.resilience.retry import RetryPolicy
from repro.resilience.shutdown import SweepInterrupted
from repro.resilience.supervisor import CellSupervisor
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


class _Run:
    """One run's coordinator state: the supervisor (attempts, backoff,
    landings, failures) plus the transport's ``running`` map -- which
    agent hosts which cell, the handle a deadline kills by."""

    def __init__(self, specs: list, sup: CellSupervisor) -> None:
        self.sup = sup
        self.total = len(specs)
        self.spec_dicts = [spec.to_dict() for spec in specs]
        self.running: "dict[int, _Agent]" = {}
        #: forwarded ``cell_done`` events whose landing ack is still due
        self.held_done: "dict[int, dict]" = {}
        self.lock = threading.Lock()

    def dispatch(self, agent: _Agent, indices) -> None:
        with self.lock:
            agent.assigned |= set(indices)
        agent.send(shard_message(
            [(i, self.spec_dicts[i]) for i in indices], self.total
        ))


class ClusterExecutor:
    """Shards a spec list across worker agents over a result bus.

    Args:
        workers: number of worker agents to launch.
        launcher: transport (default :class:`LocalLauncher`; also
            accepts a CLI spec string like ``"ssh:host1,host2"``).
        cache_dir: the shared result bus directory.  ``None`` uses a
            private temporary directory torn down after the run (fine
            for localhost; ssh workers need a shared path).
        max_retries: shorthand for a zero-backoff ``retry`` policy with
            ``max_attempts = max_retries + 1`` (ignored when ``retry``
            is given).
        heartbeat_interval: worker beacon period (seconds).
        heartbeat_timeout: silence beyond this marks a worker hung and
            re-queues its cells (default: ``max(15, 10 * interval)``).
        retry: a :class:`repro.resilience.RetryPolicy`: the re-dispatch
            budget, deterministic backoff delays on re-queue, and a
            per-cell wall-clock deadline -- a cell running past
            ``retry.cell_timeout`` gets its hosting worker killed (the
            process boundary is the only reliable way to stop a wedged
            simulation) and re-queues with the usual budget.  A cell
            that spends its budget falls through to the local merge.
        worker_procs: sub-process pool size *inside* each worker agent
            (``repro worker --workers N``): the agent runs its shard
            through a :class:`ParallelExecutor` against the bus instead
            of serially, multiplying fan-out to ``workers x
            worker_procs`` processes.  1 keeps the serial agent.
    """

    def __init__(
        self,
        workers: int = 2,
        launcher: "Launcher | str | None" = None,
        cache_dir: "str | Path | None" = None,
        *,
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
        self.retry = (
            retry if retry is not None
            else RetryPolicy(max_attempts=max_retries + 1, backoff_base=0.0)
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
        run = _Run(specs, CellSupervisor(specs, self.retry, _emitter(on_event)))
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
            self._run_distributed(specs, bus, run, stop)
            if stop is not None and stop.is_set():
                # drained: every in-flight cell finished and landed;
                # skipping the merge keeps the exit fast and resumable
                raise SweepInterrupted(
                    done=len(run.sup.landed), total=len(specs)
                )
            return self._merge(specs, bus, run.sup, stop, on_result)
        finally:
            if owns_bus:
                shutil.rmtree(bus, ignore_errors=True)

    # ------------------------------------------------------------------
    # distributed phase
    # ------------------------------------------------------------------
    def _worker_args(self, bus: Path, wid: int) -> list:
        args = [
            "--cache-dir",
            str(bus),
            "--worker-id",
            str(wid),
            "--heartbeat",
            str(self.heartbeat_interval),
        ]
        if self.worker_procs > 1:
            args += ["--workers", str(self.worker_procs)]
        return args

    def _run_distributed(self, specs: list, bus: Path, run: _Run, stop) -> None:
        from repro import obs

        sup = run.sup
        agents: list[_Agent] = []
        for wid, shard in enumerate(shard_by_digest(specs, self.workers)):
            agent = self._launch(wid, bus)
            agents.append(agent)
            self._start_io(agent, run)
            if shard:
                run.dispatch(agent, [index for index, _ in shard])
        try:
            while len(sup.landed) + len(sup.failures) < run.total:
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
                        self._declare_dead(agent, run, kill=not exited)
                self._enforce_deadlines(run)
                alive = [a for a in agents if not a.dead]
                obs.gauge("cluster.workers_alive").set(len(alive))
                if not alive:
                    break  # nobody left: the merge pass computes the rest
                requeue = sup.ready()
                if requeue:
                    run.dispatch(
                        min(alive, key=lambda a: len(a.assigned)), requeue
                    )
                time.sleep(0.05)
        finally:
            self._shutdown(agents)

    def _launch(self, wid: int, bus: Path) -> _Agent:
        try:
            proc = self.launcher.launch(wid, self._worker_args(bus, wid))
        except OSError as exc:
            from repro.api.executor import logger

            logger.warning("cluster worker %d failed to launch: %s", wid, exc)
            proc = _DeadProc()  # the health loop declares it dead
        return _Agent(wid, proc)

    def _start_io(self, agent: _Agent, run: _Run) -> None:
        if isinstance(agent.proc, _DeadProc):
            return
        agent.reader = threading.Thread(
            target=self._read_loop,
            args=(agent, run),
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

    def _read_loop(self, agent: _Agent, run: _Run) -> None:
        try:
            for line in agent.proc.stdout:
                message = parse_line(line)
                if message is None:
                    continue
                agent.last_seen = time.monotonic()
                self._handle(agent, message, run)
        except (OSError, ValueError):
            pass  # stream torn down mid-read (kill/shutdown race)

    def _handle(self, agent: _Agent, message: dict, run: _Run) -> None:
        from repro import obs
        from repro.api.executor import logger

        sup = run.sup
        mtype = message.get("type")
        if mtype == "event":
            event = message.get("event")
            if isinstance(event, dict):
                # shadow the stream to know which agent runs which cell
                # right now -- the handle the deadline enforcer kills by
                etype = event.get("type")
                index = event.get("index")
                if isinstance(index, int):
                    with run.lock:
                        if etype == "cell_start":
                            run.running[index] = agent
                        elif etype == "cache_hit":
                            run.running.pop(index, None)
                        elif etype == "cell_done" and index not in sup.landed:
                            # agents ack a landing before its cell_done:
                            # without the ack the cell stays running, so
                            # its deadline can still recover a lost ack
                            run.held_done[index] = event
                            return
                sup.emit(event)
        elif mtype == "cell_result":
            index = message.get("index")
            held = None
            with run.lock:
                if isinstance(index, int):
                    sup.land(index)
                    run.running.pop(index, None)
                    held = run.held_done.pop(index, None)
                agent.assigned.discard(index)
            if held is not None:
                sup.emit(held)
        elif mtype == "heartbeat":
            sup.emit(
                {
                    "type": "worker_heartbeat",
                    "worker": message.get("pid"),
                    "rss_kb": message.get("rss_kb", 0),
                    "t": message.get("t"),
                }
            )
        elif mtype == "cell_error":
            index = message.get("index")
            cause = message.get("cause")
            logger.warning(
                "cluster worker %d failed cell %s (%s): %s",
                agent.wid, index, cause, message.get("error"),
            )
            if isinstance(index, int):
                with run.lock:
                    agent.assigned.discard(index)
                    run.running.pop(index, None)
                    self._bill(
                        run, [index], str(message.get("error", "cell_error")),
                        cause if cause in CAUSES else "exception",
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

    def _bill(self, run: _Run, indices, reason: str, cause: str) -> None:
        """Bill one failed attempt per cell (caller holds the run lock);
        the supervisor re-queues or exhausts each."""
        from repro import obs

        requeued = sum(run.sup.fail(index, reason, cause) for index in indices)
        if requeued:
            self.last_requeued += requeued
            obs.counter("cluster.cells_requeued").inc(requeued)

    def _enforce_deadlines(self, run: _Run) -> None:
        """Kill the agent hosting any overdue cell (SIGKILL works on
        SIGSTOPped processes too, so a *frozen* worker cannot dodge the
        deadline).  The supervisor already billed the overdue cells; the
        agent's other cells re-queue through the dead-worker path."""
        from repro import obs

        over = run.sup.overdue()
        if not over:
            return
        self.last_timeouts += len(over)
        obs.counter("cluster.cell_timeouts").inc(len(over))
        with run.lock:
            doomed = [run.running.pop(cell.index, None) for cell in over]
        for agent in dict.fromkeys(doomed):
            if agent is not None and not agent.dead:
                self._declare_dead(agent, run, kill=True)

    def _declare_dead(self, agent: _Agent, run: _Run, kill: bool) -> None:
        from repro import obs
        from repro.api.executor import logger

        agent.dead = True
        if kill:
            try:
                agent.proc.kill()
            except OSError:
                pass
        with run.lock:
            lost = sorted(agent.assigned - run.sup.landed)
            agent.assigned.clear()
            for index in [i for i, a in run.running.items() if a is agent]:
                del run.running[index]
            self._bill(run, lost, "worker died", "worker_dead")
        self.last_worker_deaths += 1
        obs.counter("cluster.worker_deaths").inc()
        logger.warning(
            "cluster worker %d (pid %s) died%s; re-queued %d unfinished "
            "cells", agent.wid, agent.pid,
            " (heartbeat timeout)" if kill else "", len(lost),
        )
        run.sup.emit(
            {
                "type": "worker_dead",
                "worker": agent.pid,
                "requeued": lost,
            }
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
        self, specs: list, bus: Path, sup: CellSupervisor,
        stop=None, on_result=None,
    ) -> list[ExperimentResult]:
        """Collect results from the bus in spec order.

        Every landed cell is a byte-identical cache hit; anything the
        cluster failed to land is computed locally here, so the sweep
        degrades to serial instead of failing or going partial.  The
        event filter keeps telemetry coherent: landed cells already
        streamed their events from workers, so only locally-computed
        fallback cells may emit again, and landed cells whose worker
        ``cell_done`` was lost in transit, which the ledger still shows
        running.
        """
        from repro import obs

        fallback = {i for i in range(len(specs)) if i not in sup.landed}
        self.last_fallback = len(fallback)
        if fallback:
            obs.counter("cluster.cells_fallback").inc(len(fallback))
        unseen = fallback | {
            i for i in range(len(specs)) if i not in sup.ledger.done
        }

        def merge_emit(event: dict) -> None:
            if event.get("index") in unseen:
                sup.emit(event)

        merged = CachingExecutor(bus, SerialExecutor(retry=self.retry))
        return merged.run(
            specs, on_event=merge_emit, stop=stop, on_result=on_result
        )


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
