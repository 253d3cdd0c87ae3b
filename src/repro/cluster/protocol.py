"""The coordinator <-> worker wire protocol: newline-delimited JSON.

One JSON object per line, canonical encoding (sorted keys, compact
separators) like every other JSON artefact in the repo.  The protocol is
deliberately tiny -- the *results* never cross this channel.  Workers
land canonical result JSON in the shared content-addressed cache
directory (the result bus, see :mod:`repro.api.executor`) and only tell
the coordinator *that* a cell landed; the coordinator merges from the
bus afterwards.  That keeps the transport trivial (any byte pipe works:
a subprocess, an ssh channel) and makes retries and straggler
re-dispatch idempotent: whoever lands a cell's digest first wins, and
identical specs produce byte-identical files so the winner never
matters.

Coordinator -> worker
---------------------

* ``{"type": "shard", "cells": [{"index", "total", "spec"}, ...]}`` --
  run these grid cells (``spec`` in canonical dict form, ``index`` the
  cell's position in the full grid).  A worker may receive several
  shard messages (initial placement, then re-queued cells from dead
  peers); it processes them in order.
* ``{"type": "shutdown"}`` -- drain and exit (EOF on stdin means the
  same).

Worker -> coordinator
---------------------

* ``{"type": "ready", "protocol", "pid", "worker_id"}`` -- handshake;
  the coordinator rejects mismatched protocol versions.
* ``{"type": "heartbeat", "pid", "rss_kb", "t"}`` -- periodic liveness
  beacon; silence beyond the coordinator's timeout marks the worker
  hung and re-queues its unfinished cells.
* ``{"type": "event", "event": {...}}`` -- a forwarded executor
  telemetry event (``cell_start``/``cell_done``/``cache_*``, the exact
  shapes of :mod:`repro.api.executor`) carrying the cell's grid index,
  so the coordinator's ``on_event`` consumers (progress, traces) see
  one coherent stream across all workers.
* ``{"type": "cell_result", "index", "digest"}`` -- the cell's result
  is durably in the bus (sent strictly *after* the atomic rename).
* ``{"type": "cell_error", "index", "error", "cause"}`` -- the cell's
  one attempt in the agent failed; ``cause`` is typed like the
  executor resilience events (``exception``: it raised;
  ``worker_dead``: the agent's pool worker running it died).  The
  coordinator bills it with that cause and re-queues it (bounded) or
  computes it locally.
* ``{"type": "shard_done", "count"}`` -- a shard message was fully
  processed.
* ``{"type": "error", "message"}`` -- protocol-level complaint
  (malformed line, unknown message type).
"""

from __future__ import annotations

import json
import threading

#: Bump when the wire protocol changes incompatibly.  The worker sends
#: its version in the ready handshake and the coordinator refuses
#: mismatches, so a version skew across hosts fails loudly instead of
#: corrupting a sweep.  Version 2 added ``cause`` to ``cell_error``.
PROTOCOL_VERSION = 2


def dumps_line(message: dict) -> str:
    """One protocol message as a canonical single-line JSON string."""
    return json.dumps(message, sort_keys=True, separators=(",", ":"))


def parse_line(line: str) -> "dict | None":
    """Parse one protocol line; ``None`` for blank or non-object lines."""
    line = line.strip()
    if not line:
        return None
    try:
        message = json.loads(line)
    except ValueError:
        return None
    return message if isinstance(message, dict) else None


class LineChannel:
    """Thread-safe writer of protocol messages to a text stream.

    The worker's heartbeat thread and its cell loop share one stdout;
    the lock keeps their lines whole.  ``send`` returns ``False`` when
    the stream is gone (coordinator died, pipe closed) instead of
    raising, so senders can wind down quietly.
    """

    __slots__ = ("_stream", "_lock")

    def __init__(self, stream) -> None:
        self._stream = stream
        self._lock = threading.Lock()

    def send(self, message: dict) -> bool:
        line = dumps_line(message)
        with self._lock:
            try:
                self._stream.write(line + "\n")
                self._stream.flush()
            except (OSError, ValueError):
                return False
        return True


def shard_message(cells: "list[tuple[int, dict]]", total: int) -> dict:
    """The shard dispatch for ``(index, spec_dict)`` cells."""
    return {
        "type": "shard",
        "cells": [
            {"index": index, "total": total, "spec": spec_dict}
            for index, spec_dict in cells
        ],
    }
