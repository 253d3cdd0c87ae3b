"""Unified experiment API -- the single front door to the reproduction.

Compose a spec, hand it to a session (or a grid of specs to an
executor), get canonical results back.  There is one result model: a
:class:`RunRecord` per run and an :class:`ExperimentResult` per cell,
whose methods (``outcome_counts``, ``rate``, ``erroneous``, ``row``,
``recovered``, ...) derive every aggregate from the records.  Figures,
tables and benches read these objects, so they are a function of the
canonical JSON bytes a result saves::

    from repro.api import ExperimentSpec, Grid, Session, make_executor

    # one cell
    result = Session().run(ExperimentSpec(benchmark="fft", component="l2c", n=50))
    print(result.outcome_counts())

    # the full Fig. 3 grid, fanned out over processes
    grid = Grid(n=50)
    results = make_executor(workers=4).run(grid.specs())
    results[0].save("cell0.json")
"""

from repro.api.executor import (
    CachingExecutor,
    CampaignOutcome,
    CellFailure,
    Executor,
    ParallelExecutor,
    SerialExecutor,
    load_cached_result,
    make_executor,
    result_cache_path,
    run_campaign,
    shard_by_digest,
    store_cached_result,
)
from repro.api.grid import Grid
from repro.api.result import (
    SCHEMA_VERSION,
    ExperimentResult,
    RunRecord,
    dumps_canonical,
    sweep_document,
)
from repro.api.session import Session
from repro.api.spec import (
    DEFAULT_MACHINE,
    DEFAULT_SCALE,
    INJECTION_COMPONENTS,
    MODES,
    QRR_COMPONENTS,
    ExperimentSpec,
)

__all__ = [
    "CachingExecutor",
    "CampaignOutcome",
    "CellFailure",
    "DEFAULT_MACHINE",
    "DEFAULT_SCALE",
    "Executor",
    "ExperimentResult",
    "ExperimentSpec",
    "Grid",
    "INJECTION_COMPONENTS",
    "MODES",
    "ParallelExecutor",
    "QRR_COMPONENTS",
    "RunRecord",
    "SCHEMA_VERSION",
    "SerialExecutor",
    "Session",
    "dumps_canonical",
    "load_cached_result",
    "make_executor",
    "result_cache_path",
    "run_campaign",
    "shard_by_digest",
    "store_cached_result",
    "sweep_document",
]
