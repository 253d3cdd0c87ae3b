"""Benchmark harness tests (repro.bench)."""

import json

import pytest

from repro.bench import (
    BenchSettings,
    check_against_baseline,
    fault_overhead_guard,
    host_noise_warnings,
    obs_overhead_guard,
    run_benches,
)
from repro.bench.harness import paired_overhead, save_bench


def _doc(golden_cps, injection_cps=50_000.0, reference_cps=None):
    golden = {"event": {"cycles_per_sec": golden_cps}}
    if reference_cps is not None:
        golden["reference"] = {"cycles_per_sec": reference_cps}
    return {
        "schema_version": 3,
        "results": {
            "golden": golden,
            "injection": {"event": {"cycles_per_sec": injection_cps}},
        },
    }


class TestBaselineCheck:
    def test_passes_within_tolerance(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_doc(100_000.0)))
        assert check_against_baseline(_doc(80_000.0), base, 0.30) == []

    def test_fails_beyond_tolerance(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_doc(100_000.0)))
        failures = check_against_baseline(_doc(60_000.0), base, 0.30)
        assert len(failures) == 1
        assert "golden" in failures[0]

    def test_missing_scenarios_are_ignored(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_doc(100_000.0)))
        doc = {"schema_version": 3, "results": {}}
        assert check_against_baseline(doc, base, 0.30) == []

    def test_reference_engine_is_gated_too(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_doc(100_000.0, reference_cps=150_000.0)))
        doc = _doc(100_000.0, reference_cps=90_000.0)
        failures = check_against_baseline(doc, base, 0.30)
        assert len(failures) == 1
        assert "golden[reference]" in failures[0]


class TestHarness:
    def test_golden_scenario_produces_speedup_block(self, tmp_path):
        settings = BenchSettings(
            repeats=1,
            scenarios=("golden",),
            engines=("event", "reference"),
        )
        doc = run_benches(settings)
        assert doc["schema_version"] == 3
        entry = doc["results"]["golden"]
        for engine in ("event", "reference"):
            assert entry[engine]["cycles"] > 0
            assert entry[engine]["cycles_per_sec"] > 0
        assert entry["speedup_event_vs_reference"] > 0
        # the golden scenario reports delta-chain storage statistics
        stats = entry["event"]["snapshot_storage"]
        assert stats["checkpoints"] >= 1
        # schema v2: per-phase breakdown (core interp / uncore / snapshot);
        # the reference engine inlines its uncore stage, so it has none
        phases = entry["event"]["phases"]
        assert phases["total"] > 0
        assert phases["core_interp"] >= 0
        assert phases["uncore"] >= 0
        assert phases["snapshot"] >= 0
        assert "phases" not in entry["reference"]
        # schema v3: every engine carries a repeat-spread summary
        for engine in ("event", "reference"):
            got = entry[engine]["spread"]
            assert set(got) == {"min", "median", "max", "stdev"}
            assert got["min"] <= got["median"] <= got["max"]
        path = save_bench(doc, tmp_path / "BENCH_step.json")
        reread = json.loads(path.read_text())
        assert reread["results"]["golden"]["event"]["cycles"] == (
            entry["event"]["cycles"]
        )
        # both engines simulate the same number of cycles
        assert entry["event"]["cycles"] == entry["reference"]["cycles"]

    def test_golden_timed_repeats_run_without_shims(self, monkeypatch):
        """Every timed golden repeat runs bare; the phase timers ride on
        one extra repeat that is not part of ``seconds``/``spread``."""
        from repro.bench import harness

        calls = []
        timed_repeats = []
        real_timed = harness._timed
        real_golden = harness.compute_golden

        def timed(fn, repeats):
            timed_repeats.append(repeats)
            return real_timed(fn, repeats)

        def golden(machine, *args, **kwargs):
            # instrument_phases shadows these methods per instance
            shimmed = "_step_uncore" in vars(machine) or (
                "snapshot" in vars(machine)
            )
            calls.append((timed_repeats[-1], shimmed))
            return real_golden(machine, *args, **kwargs)

        monkeypatch.setattr(harness, "_timed", timed)
        monkeypatch.setattr(harness, "compute_golden", golden)
        settings = BenchSettings(repeats=2, scenarios=("golden",))
        entry = run_benches(settings)["results"]["golden"]
        assert calls == [
            (2, False), (2, False), (1, True),  # event: 2 bare + 1 extra
            (2, False), (2, False),  # reference: bare, no phase split
        ]
        assert "phases" in entry["event"]
        assert "phases" not in entry["reference"]

    def test_cluster_scenario_reports_fabric_comparison(self):
        settings = BenchSettings(
            repeats=1, sweep_runs=1, scenarios=("cluster",)
        )
        doc = run_benches(settings)
        entry = doc["results"]["cluster"]
        assert entry["cells"] == 4
        assert entry["workers"] == 2
        # a fabric comparison, not an engine row: serial vs a 2-worker
        # localhost cluster, each with throughput + repeat spread
        for fabric in ("serial", "cluster_2"):
            assert entry[fabric]["seconds"] > 0
            assert entry[fabric]["cells_per_sec"] > 0
            assert set(entry[fabric]["spread"]) == {
                "min", "median", "max", "stdev",
            }
        assert entry["speedup_cluster_vs_serial"] > 0


class TestHostNoise:
    def _spread_doc(self, stdev):
        return {
            "schema_version": 3,
            "results": {
                "golden": {
                    "event": {
                        "cycles_per_sec": 1.0,
                        "spread": {
                            "min": 0.9, "median": 1.0,
                            "max": 1.4, "stdev": stdev,
                        },
                    }
                }
            },
        }

    def test_quiet_host_produces_no_warnings(self):
        assert host_noise_warnings(self._spread_doc(0.05)) == []

    def test_noisy_host_is_flagged(self):
        warnings = host_noise_warnings(self._spread_doc(0.2))
        assert len(warnings) == 1
        assert "golden[event]" in warnings[0]

    def test_baseline_check_forwards_noise_warnings(self, tmp_path):
        base = tmp_path / "base.json"
        base.write_text(json.dumps(_doc(100_000.0)))
        doc = self._spread_doc(0.2)
        doc["results"]["golden"]["event"]["cycles_per_sec"] = 100_000.0
        seen = []
        assert check_against_baseline(doc, base, 0.30, warn=seen.append) == []
        assert any("noisy host" in line for line in seen)


class TestObsOverheadGuard:
    def test_guard_reports_small_overhead(self):
        """The obs layer must stay near-zero cost when disabled and
        cheap when enabled (CI gates this at 10%; the unit test allows
        headroom against CI-runner noise)."""
        settings = BenchSettings(injections=2, repeats=2)
        guard = obs_overhead_guard(settings)
        assert guard["runs"] >= 2
        assert guard["engine"] == "event"
        assert guard["off_seconds"] > 0
        assert guard["on_seconds"] > 0
        # sanity bound only -- the tight 10% gate runs in CI with a
        # larger sample (repro bench --obs-guard)
        assert guard["overhead"] < 1.0

    def test_guard_restores_obs_state(self):
        from repro import obs

        was = obs.enabled()
        obs_overhead_guard(BenchSettings(injections=2, repeats=1))
        assert obs.enabled() == was


class TestPairedOverhead:
    """The obs guard's statistic against its CI bound (10%)."""

    OFF = [1.00, 1.04, 0.97, 1.10, 0.99, 1.02, 1.01]

    def test_uniform_slowdown_fails(self):
        on = [t * 1.15 for t in self.OFF]
        assert paired_overhead(self.OFF, on) > 0.10

    def test_one_outlier_pair_does_not_flip(self):
        """One disturbed pair (here a lucky-fast obs-off repeat) decided
        the best-of verdict; the median over pairs ignores it."""
        on = [t * 1.02 for t in self.OFF]
        off = list(self.OFF)
        off[3] = 0.85
        assert min(on) / min(off) - 1.0 > 0.10  # what best-of reported
        assert paired_overhead(off, on) == pytest.approx(0.02)

    def test_rejects_unpaired_timings(self):
        with pytest.raises(ValueError):
            paired_overhead([1.0, 1.0], [1.0])
        with pytest.raises(ValueError):
            paired_overhead([], [])


class TestFaultOverheadGuard:
    def test_guard_reports_small_overhead(self):
        """The default SingleBitFlip model path must track the legacy
        inline injection path closely (CI gates this at 5%; the unit
        test allows more headroom against CI-runner noise)."""
        settings = BenchSettings(injections=2, repeats=2)
        guard = fault_overhead_guard(settings)
        assert guard["runs"] == 2
        assert guard["engine"] == "event"
        assert guard["inline_seconds"] > 0
        assert guard["model_seconds"] > 0
        # sanity bound only -- the tight 5% gate runs in CI with a
        # larger sample (repro bench --fault-guard); a 2x2 wall-clock
        # sample here would flake on loaded runners
        assert guard["overhead"] < 1.0
