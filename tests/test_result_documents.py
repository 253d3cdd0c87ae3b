"""The figures are a function of the canonical result bytes.

A Fig. 3 panel and the Fig. 8/9 analyses built from the cells of a
``repro sweep --json`` document (``ExperimentResult.from_dict``) must
equal the ones built in-process from live campaigns.
"""

import json

import pytest

from repro.analysis.figures import Fig3Cell, Fig3Result, fig3_outcome_rates
from repro.api import ExperimentResult, Session
from repro.cli import main
from repro.recovery.propagation import PropagationAnalysis
from repro.recovery.rollback import RollbackAnalysis
from repro.system.outcome import OUTCOME_ORDER

SMALL = ["--cores", "2", "--threads-per-core", "2", "--seed", "8"]


def sweep_document(tmp_path, name, argv) -> list[ExperimentResult]:
    path = tmp_path / f"{name}.json"
    assert main(["sweep", *argv, *SMALL, "--json", str(path)]) == 0
    payload = json.loads(path.read_text())
    return [ExperimentResult.from_dict(cell) for cell in payload["results"]]


@pytest.fixture(scope="module")
def documents(tmp_path_factory):
    tmp_path = tmp_path_factory.mktemp("documents")
    return {
        # CCX flips on flui reach the cores (Fig. 8 samples)
        "ccx": sweep_document(
            tmp_path, "ccx",
            ["--components", "ccx", "--benchmarks", "flui", "fft",
             "--n", "12", "--scale", "2e-5"],
        ),
        # SRAM double-bit faults corrupt memory words (Fig. 9 samples)
        "sram": sweep_document(
            tmp_path, "sram",
            ["--components", "l2c", "--benchmarks", "flui", "--fault",
             "sram:k=2", "--n", "12", "--scale", "4e-5"],
        ),
    }


def test_fig3_panel_from_document_equals_in_process(documents):
    cells = documents["ccx"]
    spec = cells[0].spec
    loaded = Fig3Result(
        "ccx", [Fig3Cell("ccx", c.spec.benchmark, c) for c in cells]
    )
    live = fig3_outcome_rates(
        "ccx",
        ["flui", "fft"],
        n_injections=spec.n,
        machine_config=spec.machine,
        scale=spec.scale,
        seed=spec.seed,
        session=Session(),
    )
    assert loaded == live
    assert [c.rates() for c in loaded.cells] == [c.rates() for c in live.cells]
    for outcome in OUTCOME_ORDER:
        assert loaded.mean_rate(outcome) == live.mean_rate(outcome)
    assert loaded.mean_erroneous() == live.mean_erroneous() > 0


@pytest.mark.parametrize(
    "analysis,document",
    [(PropagationAnalysis, "ccx"), (RollbackAnalysis, "sram")],
)
def test_fig8_fig9_from_document_equal_in_process(documents, analysis, document):
    cells = documents[document]
    component = cells[0].spec.component
    session = Session()
    live_runs = [run for c in cells for run in session.campaign(c.spec)]
    records = [r for c in cells for r in c.records]
    loaded = analysis.from_runs(component, records)
    live = analysis.from_runs(component, live_runs)
    assert loaded == live
    assert loaded.samples
