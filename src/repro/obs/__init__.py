"""Digest-neutral telemetry: metrics, traces, and live progress.

The observability layer answers the ROADMAP's two standing asks --
"stream per-cell telemetry back" (distributed sweeps) and "``repro
top``-style operational state" (the serve daemon) -- without ever
touching experiment semantics:

* **Metrics registry** (:mod:`repro.obs.registry`): process-local
  counters, gauges, monotonic timers and bounded histograms.  The layer
  is compiled out to no-ops unless ``REPRO_OBS=1`` (or ``--obs`` /
  :func:`enable`): :func:`counter` and friends return shared null
  objects whose mutators do nothing, and hot-loop sites (the machine's
  cycle engines) cache preallocated counter objects at construction so
  the disabled path costs one attribute check at coarse boundaries,
  never a dict lookup per cycle.
* **Structured trace events** (:mod:`repro.obs.trace`): span begin/end
  records with wall + CPU time and an RSS sample, serialized as
  canonical JSON-lines and convertible to Chrome ``trace_event`` format.
  Tracing is off unless a writer is installed via :func:`set_tracer`.
* **Progress streaming** (:mod:`repro.obs.progress`): the cell ledger
  folding the executor ``on_event`` stream (per-cell state and typed
  failure cause) and the live cells/sec, ETA, cache hit rate and
  per-worker RSS view drawn from it.
* **Operational snapshots** (:mod:`repro.obs.report`): render the
  registry as a table or Prometheus text-exposition format; ``repro
  top`` reads the snapshot files sweeps write.

**Digest-neutrality contract**: obs settings are environment/CLI state,
never :class:`~repro.api.spec.ExperimentSpec` fields -- they are
excluded from spec equality, digests, cache keys and canonical result
bytes (exactly like ``engine``).  Instrumentation must not consume
campaign RNG or mutate simulated state, so every campaign is
bit-identical with obs on or off (the differential suite runs under
``REPRO_OBS=1`` in CI).
"""

from __future__ import annotations

import time

from repro.obs.registry import (
    NULL_COUNTER,
    NULL_GAUGE,
    NULL_HISTOGRAM,
    NULL_TIMER,
    REGISTRY,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    Timer,
    counter,
    disable,
    enable,
    enabled,
    gauge,
    histogram,
    timer,
)
from repro.obs.trace import TraceWriter, to_chrome, validate_trace
from repro.obs.progress import ProgressRenderer, ProgressState
from repro.obs.report import (
    render_prometheus,
    render_table,
    snapshot,
    write_snapshot,
)

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NULL_COUNTER",
    "NULL_GAUGE",
    "NULL_HISTOGRAM",
    "NULL_TIMER",
    "ProgressRenderer",
    "ProgressState",
    "REGISTRY",
    "Timer",
    "TraceWriter",
    "counter",
    "cpu_seconds",
    "disable",
    "enable",
    "enabled",
    "gauge",
    "histogram",
    "render_prometheus",
    "render_table",
    "rss_kb",
    "set_tracer",
    "snapshot",
    "timer",
    "to_chrome",
    "tracer",
    "validate_trace",
    "write_snapshot",
]

# ----------------------------------------------------------------------
# current trace writer (process-local; None = tracing off)
# ----------------------------------------------------------------------
_TRACER: "TraceWriter | None" = None


def set_tracer(writer: "TraceWriter | None") -> "TraceWriter | None":
    """Install (or clear) the process-wide trace writer; returns the
    previous one so callers can restore it."""
    global _TRACER
    previous = _TRACER
    _TRACER = writer
    return previous


def tracer() -> "TraceWriter | None":
    """The currently installed trace writer (None = tracing off)."""
    return _TRACER


# ----------------------------------------------------------------------
# cheap process samples (used by spans, progress events and reports)
# ----------------------------------------------------------------------
def rss_kb() -> int:
    """Resident set size of this process in KiB (0 when unavailable).

    Reads ``/proc/self/status`` on Linux; falls back to ``ru_maxrss``
    (the peak, not current -- still useful as a coarse sample).
    """
    try:
        with open("/proc/self/status", "rb") as fh:
            for line in fh:
                if line.startswith(b"VmRSS:"):
                    return int(line.split()[1])
    except OSError:
        pass
    try:
        import resource

        return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    except (ImportError, ValueError, OSError):
        return 0


def cpu_seconds() -> float:
    """Process CPU time (user + system) in seconds."""
    return time.process_time()
