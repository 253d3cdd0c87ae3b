"""The benchmark's five workloads: a seed in, experiment specs out.

Every workload runs the default engine on the campaign geometry
(``DEFAULT_MACHINE``: 8 cores x 4 threads, 8 L2 banks).  The seed is the
only input: it becomes ``ExperimentSpec.seed``, which drives both the
workload data and the injection sampling.  Why each workload exists is
recorded in ``BENCHMARK.json`` and ``perf/README.md``.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.api import ExperimentSpec
from repro.workloads import ALL_BENCHMARKS

#: smoke size: one benchmark (p-wc has an input file, so it also has a
#: PCIe cell), one run per cell, the default campaign scale
SMOKE_BENCHMARK = "p-wc"
SMOKE_SCALE = 1.0 / 40_000.0

FLICKER = "flicker:period=50,window=2000"


@dataclass(frozen=True)
class Workload:
    name: str
    #: one (benchmark, component, mode, fault) tuple per cell
    cells: tuple
    n: int
    scale: float


def _grid(benchmarks, components, mode="injection", fault=None) -> tuple:
    return tuple((b, c, mode, fault) for b in benchmarks for c in components)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "seu-mix",
            _grid(("fft", "p-wc"), ("l2c", "mcu", "ccx"))
            + (("p-wc", "pcie", "injection", None),),
            n=18,
            scale=1.0 / 40_000.0,
        ),
        Workload(
            "cosim-flicker",
            _grid(("fft", "p-wc"), ("l2c", "mcu"), fault=FLICKER),
            n=18,
            scale=1.0 / 40_000.0,
        ),
        Workload(
            "handover-sram",
            _grid(("fft", "p-wc"), ("l2c",), fault="sram:k=2"),
            n=24,
            scale=1.0 / 40_000.0,
        ),
        Workload(
            "qrr-recover",
            _grid(("fft", "p-wc"), ("l2c", "mcu"), mode="qrr"),
            n=16,
            scale=1.0 / 40_000.0,
        ),
        Workload(
            "table5-cold",
            _grid(sorted(ALL_BENCHMARKS), ("l2c",)),
            n=2,
            scale=1.0 / 12_000.0,
        ),
    )
}


def specs(name: str, seed: int, smoke: bool = False) -> list[ExperimentSpec]:
    """The cells of one workload, in run order."""
    workload = WORKLOADS[name]
    cells, n, scale = workload.cells, workload.n, workload.scale
    if smoke:
        cells = tuple(c for c in cells if c[0] == SMOKE_BENCHMARK)
        n, scale = 1, SMOKE_SCALE
    return [
        ExperimentSpec(
            benchmark=benchmark,
            component=component,
            mode=mode,
            fault=fault,
            n=n,
            scale=scale,
            seed=seed,
        )
        for benchmark, component, mode, fault in cells
    ]
