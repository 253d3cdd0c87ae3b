"""The ``repro worker`` agent: shard cells in, bus results + events out.

One worker process owns one :class:`~repro.api.session.Session` (so
cells sharing a platform key amortize their golden run, exactly like a
process-pool worker) and loops over protocol messages on stdin.  Every
shard runs through the same executor stack a local sweep uses:
``CachingExecutor(bus, make_executor(workers=N, session=session,
retry=RetryPolicy(max_attempts=1)))`` -- serial for ``repro worker``,
a process pool of ``N`` for ``repro worker --workers N`` (``workers x
worker_procs`` total fan-out under one coordinator).

* The caching layer consults the shared result bus first -- a prior
  sweep, a peer, or an earlier attempt of a re-dispatched cell may
  already have landed the digest, making the cell a free cache hit.
* Misses run and are published with the atomic unique-temp rename of
  :func:`repro.api.executor.store_cached_result`; ``cell_result`` is
  sent strictly *after* the rename (the caching layer's ``on_result``
  fires after it; a bus hit is durable by definition) and before the
  cell's ``cell_done``, so the coordinator only ever counts durable
  results as landed.
* Executor telemetry (``cell_start``/``cell_done``/``cache_*``, the
  shapes every backend emits) is forwarded as ``event`` messages with
  the cell's grid index, and a daemon thread heartbeats liveness + RSS.

Each cell gets one attempt inside the agent: only the coordinator
bills.  A cell the inner executor gives up on (its ``cell_exhausted``)
becomes ``cell_error`` with the typed ``cause`` (``exception`` or, for
a killed pool worker, ``worker_dead``); the inner ``cell_retry``/
``cell_timeout``/``cell_exhausted`` events are never forwarded.  Every
cell of a shard is acknowledged with ``cell_result`` or ``cell_error``
unless the agent is draining -- the coordinator's monitor loop counts
on exactly that to terminate.  The agent exits on ``shutdown`` or EOF
(coordinator death), never killing the host it runs on.  Like a
process-pool worker it runs the default cycle engine: canonical spec
JSON omits the engine and no agent option selects one (engines are
digest-neutral, so results are unaffected).
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from pathlib import Path

from repro.api.executor import CachingExecutor, make_executor
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.cluster.protocol import (
    PROTOCOL_VERSION,
    LineChannel,
    parse_line,
)
from repro.resilience import RetryPolicy, SweepInterrupted

#: inner executor events the agent keeps to itself: billing is the
#: coordinator's job
_NOT_FORWARDED = ("cell_retry", "cell_timeout", "cell_exhausted")


def _heartbeat_loop(channel: LineChannel, stop: threading.Event, interval: float) -> None:
    from repro.obs import rss_kb

    pid = os.getpid()
    while not stop.wait(interval):
        ok = channel.send(
            {
                "type": "heartbeat",
                "pid": pid,
                "rss_kb": rss_kb(),
                "t": round(time.time(), 6),
            }
        )
        if not ok:
            return  # stdout gone: the coordinator died; the main loop
            # will see EOF on stdin and exit


def _land_shard(
    session: Session,
    cache_dir: Path,
    cells,
    channel: LineChannel,
    workers: int,
    drain: threading.Event,
) -> None:
    """Run one shard against the bus and acknowledge every cell.

    Coordinates are remapped shard-position -> grid index before any
    message leaves the agent.  The hard invariant is the ack sweep at
    the end: every cell must report ``cell_result`` (durable) or
    ``cell_error`` (re-queueable) -- a silently dropped cell would spin
    the coordinator's monitor loop forever.  Draining is the one
    exception; the coordinator is draining too and EOF-requeues.
    """
    specs: list[ExperimentSpec] = []
    grid_index: list[int] = []
    grid_total = 0
    for cell in cells:
        index = cell.get("index", -1)
        try:
            spec = ExperimentSpec.from_dict(cell["spec"])
        except Exception as exc:  # malformed cell: report, keep the shard
            channel.send({
                "type": "cell_error", "index": index,
                "error": f"{type(exc).__name__}: {exc}", "cause": "exception",
            })
            continue
        specs.append(spec)
        grid_index.append(index)
        grid_total = max(grid_total, cell.get("total", 0))
    acked: dict[int, str] = {}  # shard position -> ack message type
    ack_lock = threading.Lock()

    def ack(pos: int, message: dict) -> None:
        with ack_lock:
            if pos in acked:
                return
            acked[pos] = message["type"]
        channel.send({**message, "index": grid_index[pos]})

    def emit(event: dict) -> None:
        pos = event.get("index")
        if not (isinstance(pos, int) and 0 <= pos < len(grid_index)):
            return
        etype = event.get("type")
        if etype == "cell_exhausted":
            ack(pos, {
                "type": "cell_error", "error": event.get("error"),
                "cause": event.get("cause", "exception"),
            })
        if etype in _NOT_FORWARDED:
            return
        mapped = {**event, "index": grid_index[pos]}
        if "total" in mapped:
            mapped["total"] = grid_total
        channel.send({"type": "event", "event": mapped})
        if etype == "cache_hit":  # a bus hit is durable by definition
            ack(pos, {"type": "cell_result", "digest": mapped["digest"]})

    def on_result(pos: int, _result) -> None:
        # the caching layer calls this strictly after the atomic rename
        ack(pos, {"type": "cell_result", "digest": specs[pos].digest()})

    executor = CachingExecutor(
        cache_dir,
        make_executor(
            workers=workers, session=session,
            retry=RetryPolicy(max_attempts=1),
        ),
    )
    failure = "shard ended without landing this cell"
    try:
        executor.run(specs, on_event=emit, on_result=on_result, stop=drain)
    except SweepInterrupted:
        pass  # draining: unacked cells are the coordinator's to requeue
    except Exception as exc:  # a CellFailure already sent its cell_error
        failure = f"{type(exc).__name__}: {exc}"
    if not drain.is_set():
        for pos in range(len(specs)):
            ack(pos, {"type": "cell_error", "error": failure,
                      "cause": "exception"})
    with ack_lock:
        landed = sum(1 for mtype in acked.values() if mtype == "cell_result")
    channel.send({"type": "shard_done", "count": landed})


def run_worker(
    cache_dir: "str | Path",
    *,
    worker_id: int = 0,
    heartbeat: float = 2.0,
    workers: int = 1,
    in_stream=None,
    out_stream=None,
) -> int:
    """The agent main loop (the body of ``repro worker``).

    ``in_stream``/``out_stream`` default to stdin/stdout; tests inject
    in-memory streams to exercise the protocol without a subprocess.
    ``heartbeat <= 0`` disables the beacon thread.  ``workers > 1``
    runs each shard through a process pool of that size instead of the
    agent's own session.

    SIGTERM/SIGINT request a graceful drain: the worker finishes the
    cell it is running (which lands durably on the bus), skips the rest
    of its shard, and exits -- the coordinator's ``stop`` path counts on
    exactly this to leave a resumable state.
    """
    in_stream = in_stream if in_stream is not None else sys.stdin
    out_stream = out_stream if out_stream is not None else sys.stdout
    channel = LineChannel(out_stream)
    cache_dir = Path(cache_dir)
    drain = threading.Event()
    if threading.current_thread() is threading.main_thread():
        def _drain_handler(signum, frame) -> None:
            drain.set()

        try:
            signal.signal(signal.SIGTERM, _drain_handler)
            signal.signal(signal.SIGINT, _drain_handler)
        except (ValueError, OSError):
            pass  # exotic host (no signal support); drain stays inert
    session = Session()
    channel.send(
        {
            "type": "ready",
            "protocol": PROTOCOL_VERSION,
            "pid": os.getpid(),
            "worker_id": worker_id,
        }
    )
    stop = threading.Event()
    if heartbeat > 0:
        threading.Thread(
            target=_heartbeat_loop,
            args=(channel, stop, heartbeat),
            name="repro-worker-heartbeat",
            daemon=True,
        ).start()
    try:
        for line in in_stream:
            message = parse_line(line)
            if message is None:
                if line.strip():
                    channel.send(
                        {
                            "type": "error",
                            "message": f"malformed message: {line[:80]!r}",
                        }
                    )
                continue
            mtype = message.get("type")
            if mtype == "shutdown":
                break
            if mtype == "shard":
                _land_shard(
                    session, cache_dir, message.get("cells", ()), channel,
                    workers, drain,
                )
                if drain.is_set():
                    break
            else:
                channel.send(
                    {
                        "type": "error",
                        "message": f"unknown message type {mtype!r}",
                    }
                )
    finally:
        stop.set()
    return 0
