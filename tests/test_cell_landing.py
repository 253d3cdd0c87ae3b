"""A cell is reported landed only once its result is durable.

The ledger moves a cell to ``landed`` on its ``cell_done`` event, the
sweep journal persists that state and serve's job view counts it.  So
every backend must emit ``cell_done`` after the result is in the
caller's hands: after ``on_result`` returned, which for a
:class:`CachingExecutor` (and the cluster's result bus) means after the
canonical JSON was renamed into place.  A kill between the two would
otherwise leave a journal that calls a cell landed whose result is
gone.
"""

from __future__ import annotations

import pytest

from repro.api import CachingExecutor, Grid, ParallelExecutor, SerialExecutor
from repro.api.executor import result_cache_path
from repro.cluster import ClusterExecutor
from repro.system.machine import MachineConfig

CFG = MachineConfig(cores=2, threads_per_core=2, l2_banks=8, l2_sets=8)

#: backends that land results on a bus directory
BUS_BACKENDS = {
    "caching-serial": lambda bus: CachingExecutor(bus, SerialExecutor()),
    "caching-parallel": lambda bus: CachingExecutor(
        bus, ParallelExecutor(workers=2)
    ),
    "cluster": lambda bus: ClusterExecutor(
        workers=2, cache_dir=bus, heartbeat_interval=0.2
    ),
}


def _specs():
    return Grid(
        components=("l2c", "mcu"),
        benchmarks=("fft",),
        seeds=(2015,),
        mode="injection",
        n=2,
        machine=CFG,
        scale=5e-6,
    ).specs()


@pytest.mark.parametrize("backend", sorted(BUS_BACKENDS))
def test_result_on_bus_at_every_cell_done(backend, tmp_path):
    specs = _specs()
    bus = tmp_path / "bus"
    done, absent = [], []

    def on_event(event):
        if event["type"] == "cell_done":
            index = event["index"]
            done.append(index)
            if not result_cache_path(bus, specs[index]).is_file():
                absent.append(index)

    BUS_BACKENDS[backend](bus).run(specs, on_event=on_event)
    assert sorted(done) == list(range(len(specs)))
    assert absent == []


@pytest.mark.parametrize(
    "make", [SerialExecutor, lambda: ParallelExecutor(workers=2)],
    ids=["serial", "parallel"],
)
def test_on_result_returns_before_cell_done(make):
    specs = _specs()
    handed, early = set(), []

    def on_event(event):
        if event["type"] == "cell_done" and event["index"] not in handed:
            early.append(event["index"])

    make().run(
        specs, on_event=on_event, on_result=lambda i, _r: handed.add(i)
    )
    assert handed == set(range(len(specs)))
    assert early == []
