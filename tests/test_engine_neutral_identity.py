"""The cycle engine never reaches serialized state or another process.

Engines are digest-neutral, so nothing that is written down (sweep JSON,
journals, serve job ids) or sent to a worker may depend on one.  The
engine is chosen in-process only -- ``Machine``, ``MixedModePlatform``,
``Session`` and ``ExperimentSpec.engine`` -- and documents written while
grids still carried an ``"engine"`` key keep working.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, Grid
from repro.cli import build_parser, main
from repro.cluster import ClusterExecutor
from repro.resilience import SweepJournal
from repro.serve.state import job_id_for, normalize_request
from repro.system.machine import MachineConfig

CFG = MachineConfig(cores=2, threads_per_core=2, l2_banks=8)
SMALL = ["--cores", "2", "--threads-per-core", "2", "--scale", "5e-6"]


def _grid() -> Grid:
    return Grid(
        components=("l2c", "mcu"),
        benchmarks=("fft",),
        n=2,
        machine=CFG,
        scale=5e-6,
    )


def _legacy(grid_dict: dict) -> dict:
    return {**grid_dict, "engine": "reference"}


def test_grid_dict_has_no_engine_key():
    assert "engine" not in _grid().to_dict()


def test_legacy_engine_key_keeps_the_serve_job_identity():
    plain = _grid().to_dict()
    payload, specs = normalize_request({"grid": plain})
    legacy_payload, legacy_specs = normalize_request(
        {"grid": _legacy(plain)}
    )
    assert legacy_payload == payload
    assert job_id_for(legacy_payload) == job_id_for(payload)
    assert [s.digest() for s in legacy_specs] == [s.digest() for s in specs]


def test_legacy_engine_key_journal_resumes(tmp_path):
    grid = _grid()
    specs = grid.specs()
    SweepJournal.create(tmp_path / "journal", _legacy(grid.to_dict()), specs)
    journal = SweepJournal.load(tmp_path / "journal")
    rebuilt = journal.to_grid()
    assert rebuilt == grid
    assert journal.matches(rebuilt.specs())


class _RecordingLauncher:
    """Records each worker argv and fails the launch, so the merge pass
    computes every cell in-process."""

    def __init__(self) -> None:
        self.argvs: list = []

    def launch(self, worker_id, worker_args):
        self.argvs.append(list(worker_args))
        raise OSError("recording only")


def test_cluster_worker_argv_never_names_an_engine(tmp_path):
    launcher = _RecordingLauncher()
    executor = ClusterExecutor(
        workers=2, launcher=launcher, cache_dir=tmp_path / "bus",
        worker_procs=2,
    )
    spec = ExperimentSpec(
        benchmark="fft", component="l2c", machine=CFG, scale=5e-6, n=1,
        engine="reference",
    )
    results = executor.run([spec])
    assert len(results) == 1
    assert len(launcher.argvs) == 2
    for argv in launcher.argvs:
        assert "--engine" not in argv
    assert "--engine" not in executor._worker_args(tmp_path / "bus", 0)


def test_sweep_engine_flag_is_gone(capsys):
    with pytest.raises(SystemExit) as exc:
        main([
            "sweep", "--engine", "reference", "--components", "l2c",
            "--benchmarks", "fft", "--n", "1", *SMALL,
        ])
    assert exc.value.code == 2
    assert "--engine" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["run", "--engine", "reference"],
        ["campaign", "--engine", "reference"],
        ["qrr", "--engine", "reference"],
        ["worker", "--cache-dir", "bus", "--engine", "reference"],
        ["serve", "--engine", "reference"],
        ["bench", "--obs-guard", "--obs-guard-engine", "reference"],
    ],
)
def test_no_command_takes_an_engine_flag(argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
