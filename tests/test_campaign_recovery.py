"""Tests for campaigns, persistence probes and recovery analyses."""

import pytest

from repro.api import ExperimentResult, ExperimentSpec, RunRecord
from repro.injection.campaign import InjectionCampaign
from repro.injection.persistence import PersistenceProbe
from repro.mixedmode.platform import InjectionRun, CosimResult, MixedModePlatform
from repro.recovery.checkpoint import IncrementalCheckpointModel
from repro.recovery.propagation import PropagationAnalysis
from repro.recovery.rollback import RollbackAnalysis
from repro.system.machine import MachineConfig
from repro.system.outcome import OUTCOME_ORDER, Outcome

CFG = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16)


def fake_run(outcome=None, persistent=False, prop=None, roll=None):
    return InjectionRun(
        component="l2c",
        instance=0,
        benchmark="fft",
        injection_cycle=100,
        flip_location=("iq_addr", 0, 0),
        warmup=500,
        outcome=outcome,
        persistent=persistent,
        cosim=CosimResult(),
        propagation_latency=prop,
        rollback_distance=roll,
    )


def fake_record(outcome=None, persistent=False, prop=None, roll=None):
    return RunRecord(
        index=0,
        outcome=outcome.value if outcome is not None else None,
        persistent=persistent,
        propagation_latency=prop,
        rollback_distance=roll,
    )


def cell(*records):
    spec = ExperimentSpec(benchmark="fft", component="l2c")
    return ExperimentResult(spec, list(records))


class TestCellAggregates:
    def test_rates_sum_to_one(self):
        result = cell(
            fake_record(Outcome.VANISHED),
            fake_record(Outcome.UT),
            fake_record(Outcome.OMM),
            fake_record(persistent=True),
        )
        total = sum(result.rate(o).rate for o in OUTCOME_ORDER)
        assert total == pytest.approx(1.0)

    def test_persistent_folds_into_vanished(self):
        result = cell(fake_record(persistent=True), fake_record(Outcome.VANISHED))
        assert result.rate(Outcome.VANISHED).rate == 1.0
        assert result.persistent == 1

    def test_erroneous_counts_non_vanished(self):
        result = cell(
            *(
                fake_record(o)
                for o in (Outcome.UT, Outcome.HANG, Outcome.OMM, Outcome.ONA,
                          Outcome.VANISHED)
            )
        )
        assert result.erroneous.rate == pytest.approx(0.8)

    def test_empty_cell_raises(self):
        with pytest.raises(ValueError):
            cell().erroneous
        with pytest.raises(ValueError):
            cell().rate(Outcome.VANISHED)

    def test_row_format(self):
        row = cell(fake_record(Outcome.VANISHED)).row()
        assert row[0] == "fft"
        assert row[-1] == "100.00%"


@pytest.fixture(scope="module")
def platform():
    return MixedModePlatform("flui", machine_config=CFG, scale=1 / 120_000)


class TestLiveCampaign:
    def test_small_campaign_runs(self, platform):
        campaign = InjectionCampaign(platform, "l2c", seed=1)
        runs = campaign.run(10)
        assert len(runs) == 10
        # the overwhelming majority of flips vanish (paper: >97%)
        vanished = sum(
            1 for r in runs if r.persistent or r.outcome is Outcome.VANISHED
        )
        assert vanished / len(runs) >= 0.5

    def test_persistence_probe_bounded(self, platform):
        probe = PersistenceProbe(platform, "l2c")
        result = probe.run(6, cap=2_000, seed=2)
        assert len(result.samples) == 6
        assert all(0 <= s <= 2_000 for s in result.samples)
        series = result.decade_series(max_exponent=4)
        fractions = [f for _x, f in series]
        assert all(a >= b for a, b in zip(fractions, fractions[1:]))


class TestRecoveryAnalyses:
    def test_sample_collection(self):
        """Live runs and canonical records feed the analyses alike; runs
        without a sample are skipped."""
        for make in (fake_run, fake_record):
            runs = [make(Outcome.OMM, prop=120, roll=4000), make(Outcome.VANISHED)]
            assert PropagationAnalysis.from_runs("l2c", runs).samples == [120]
            assert RollbackAnalysis.from_runs("l2c", runs).samples == [4000]

    def test_propagation_cdf(self):
        runs = [fake_run(Outcome.OMM, prop=lat) for lat in (10, 100, 1000, 100000)]
        analysis = PropagationAnalysis.from_runs("l2c", runs)
        assert analysis.mean == pytest.approx((10 + 100 + 1000 + 100000) / 4)
        series = analysis.decade_series(max_exponent=5)
        assert series[-1][1] == pytest.approx(1.0)
        assert analysis.fraction_beyond(1000) == pytest.approx(0.25)

    def test_propagation_empty_raises(self):
        with pytest.raises(ValueError):
            PropagationAnalysis("l2c").mean

    def test_rollback_coverage_quantile(self):
        runs = [fake_run(Outcome.OMM, roll=dist) for dist in range(100, 1100, 100)]
        analysis = RollbackAnalysis.from_runs("l2c", runs)
        assert analysis.distance_for_coverage(0.99) >= 900


class TestCheckpointModel:
    def test_stats(self):
        model = IncrementalCheckpointModel(interval=100)
        model.record_store(0x40, 50)
        model.record_store(0x48, 60)
        model.record_store(0x40, 250)
        stats = model.stats()
        assert stats.checkpoints == 2
        assert stats.max_words_per_checkpoint == 2

    def test_rollback_distance_for_logged_word(self):
        model = IncrementalCheckpointModel(interval=100)
        model.record_store(0x40, 150)  # logged in checkpoint window 1
        # corruption at cycle 950: last store's checkpoint starts at 100
        assert model.rollback_for_corruption(0x40, 950) == 850

    def test_unlogged_word_rolls_to_start(self):
        model = IncrementalCheckpointModel(interval=100)
        assert model.rollback_for_corruption(0x40, 500) == 500

    def test_from_events(self):
        model = IncrementalCheckpointModel.from_events(
            [(10, 0x40), (110, 0x48)], interval=100
        )
        assert model.stats().checkpoints == 2

    def test_interval_validation(self):
        with pytest.raises(ValueError):
            IncrementalCheckpointModel(0)
