"""Distributed sweep fabric: shard campaigns across worker agents.

The paper's campaign space (components x benchmarks x seeds x fault
models) is embarrassingly parallel far beyond one process pool.  This
package scales the :class:`~repro.api.executor.Executor` seam past a
single machine while keeping its core contract intact -- a cluster
sweep is **byte-identical** to a serial one:

* :class:`ClusterExecutor` (:mod:`repro.cluster.coordinator`) partitions
  grid cells deterministically by spec digest, dispatches shards to
  worker agents, re-queues the unfinished cells of dead or hung workers
  with bounded retries, and merges results from the shared
  content-addressed result bus (a ``CachingExecutor`` cache directory)
  in spec order.
* ``repro worker`` (:mod:`repro.cluster.worker`) is the agent: it
  speaks newline-delimited JSON over stdin/stdout, lands canonical
  result JSON in the bus, heartbeats, and streams the standard
  per-cell telemetry events back.
* Launchers (:mod:`repro.cluster.launchers`) are the pluggable
  transport: a CI-tested localhost subprocess launcher and an ssh
  launcher behind the same interface.

Like the obs switch, *where* a sweep runs is digest-neutral: cluster
execution never touches spec digests, cache keys or canonical result
bytes.  Agents run the default cycle engine, as pool workers do: the
engine is an in-process setting and never crosses the wire.
"""

from repro.cluster.coordinator import ClusterExecutor
from repro.cluster.launchers import (
    Launcher,
    LocalLauncher,
    SshLauncher,
    parse_launcher,
)
from repro.cluster.protocol import PROTOCOL_VERSION
from repro.cluster.worker import run_worker

__all__ = [
    "ClusterExecutor",
    "Launcher",
    "LocalLauncher",
    "PROTOCOL_VERSION",
    "SshLauncher",
    "parse_launcher",
    "run_worker",
]
