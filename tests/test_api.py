"""Tests for the unified experiment API (repro.api)."""

import json

import pytest

from repro.api import (
    ExperimentResult,
    ExperimentSpec,
    Grid,
    ParallelExecutor,
    RunRecord,
    SerialExecutor,
    Session,
    make_executor,
)
from repro.api.session import _record_from_injection
from repro.system.machine import MachineConfig
from repro.workloads import ALL_BENCHMARKS, PCIE_BENCHMARKS

#: small, fast geometry shared by the API tests
SMALL = MachineConfig(cores=2, threads_per_core=2, l2_banks=8, l2_sets=8, l2_ways=4)


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        benchmark="fft", component="l2c", mode="injection",
        machine=SMALL, scale=5e-6, seed=7, n=3,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


class TestSpec:
    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            small_spec(mode="fuzz")

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(ValueError, match="benchmark"):
            small_spec(benchmark="nope")

    def test_rejects_unknown_component(self):
        with pytest.raises(ValueError, match="component"):
            small_spec(component="niu")

    def test_rejects_pcie_without_input_file(self):
        assert "fft" not in PCIE_BENCHMARKS
        with pytest.raises(ValueError, match="input file"):
            small_spec(component="pcie")

    def test_rejects_qrr_on_unprotected_component(self):
        with pytest.raises(ValueError, match="QRR"):
            small_spec(mode="qrr", component="ccx")

    def test_golden_normalizes_component(self):
        assert small_spec(mode="golden").component is None

    def test_dict_round_trip(self):
        spec = small_spec()
        clone = ExperimentSpec.from_dict(
            json.loads(json.dumps(spec.to_dict()))
        )
        assert clone == spec

    def test_platform_key_shared_across_components(self):
        # l2c/mcu/ccx cells of one benchmark share a platform ...
        assert small_spec().platform_key() == small_spec(
            component="mcu"
        ).platform_key()
        # ... but pcie does not (it DMAs the input file)
        pcie = small_spec(benchmark="blsc", component="pcie")
        assert pcie.platform_key() != small_spec(
            benchmark="blsc"
        ).platform_key()

    def test_with_revalidates(self):
        with pytest.raises(ValueError):
            small_spec().with_(component="pcie")


class TestGrid:
    def test_full_injection_grid_count(self):
        # 3 components x 18 benchmarks + pcie x the input-file subset
        expected = 3 * len(ALL_BENCHMARKS) + len(PCIE_BENCHMARKS)
        assert len(Grid()) == expected

    def test_qrr_grid_drops_unprotected_components(self):
        grid = Grid(mode="qrr", benchmarks=("fft", "radi"))
        specs = grid.specs()
        assert {s.component for s in specs} == {"l2c", "mcu"}
        assert len(specs) == 4

    def test_golden_grid_one_cell_per_benchmark(self):
        grid = Grid(mode="golden", benchmarks=("fft", "radi"), seeds=(1, 2))
        specs = grid.specs()
        assert len(specs) == 4
        assert all(s.component is None for s in specs)

    def test_expansion_order_is_component_major(self):
        grid = Grid(
            components=("l2c", "mcu"), benchmarks=("fft", "radi"), n=1
        )
        labels = [(s.component, s.benchmark) for s in grid.specs()]
        assert labels == [
            ("l2c", "fft"), ("l2c", "radi"), ("mcu", "fft"), ("mcu", "radi"),
        ]

    def test_grid_propagates_spec_fields(self):
        grid = Grid(
            components=("l2c",), benchmarks=("fft",), seeds=(3,),
            n=9, machine=SMALL, scale=5e-6,
        )
        (spec,) = grid.specs()
        assert (spec.seed, spec.n, spec.machine, spec.scale) == (
            3, 9, SMALL, 5e-6
        )


class TestSessionAndResults:
    @pytest.fixture(scope="class")
    def session(self):
        return Session()

    def test_injection_result_schema(self, session):
        result = session.run(small_spec())
        assert result.injections == 3
        counts = result.outcome_counts()
        assert sum(counts.values()) + result.persistent == 3
        assert result.golden_cycles > 0
        for record in result.records:
            assert record.flip_location is not None
            assert record.injection_cycle is not None

    def test_save_load_round_trip_injection(self, session, tmp_path):
        result = session.run(small_spec())
        path = result.save(tmp_path / "cell.json")
        assert ExperimentResult.load(path) == result

    def test_save_load_round_trip_qrr(self, session, tmp_path):
        result = session.run(small_spec(mode="qrr", n=2))
        assert result.recovered == result.injections == 2
        path = result.save(tmp_path / "qrr.json")
        clone = ExperimentResult.load(path)
        assert clone == result
        assert clone.recovered == 2

    def test_save_load_round_trip_golden(self, session, tmp_path):
        result = session.run(small_spec(mode="golden"))
        record = result.records[0]
        assert record.cycles == result.golden_cycles > 0
        assert record.output_crc is not None
        path = result.save(tmp_path / "golden.json")
        assert ExperimentResult.load(path) == result

    def test_records_match_raw_campaign(self, session):
        spec = small_spec(n=4)
        records = [
            _record_from_injection(i, run)
            for i, run in enumerate(session.campaign(spec))
        ]
        assert records == session.run(spec).records

    def test_platform_cache_shared_across_components(self, session):
        assert session.platform(small_spec()) is session.platform(
            small_spec(component="ccx")
        )

    def test_rerun_is_deterministic(self, session):
        spec = small_spec(n=4)
        first = session.run(spec)
        second = Session().run(spec)  # fresh platform, same spec
        assert first == second

    def test_load_rejects_future_schema(self, tmp_path, session):
        result = session.run(small_spec(mode="golden"))
        data = result.to_dict()
        data["schema_version"] = 999
        path = tmp_path / "future.json"
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError, match="schema version"):
            ExperimentResult.load(path)


class TestExecutors:
    def test_make_executor_dispatch(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), ParallelExecutor)

    def test_empty_batch(self):
        assert ParallelExecutor(workers=2).run([]) == []

    def test_serial_parallel_equivalence(self):
        specs = [
            small_spec(),
            small_spec(component="mcu"),
            small_spec(mode="qrr", n=2),
        ]
        serial = SerialExecutor().run(specs)
        parallel = ParallelExecutor(workers=2).run(specs)
        assert [r.to_dict() for r in serial] == [
            r.to_dict() for r in parallel
        ]

    def test_parallel_preserves_spec_order(self):
        specs = [small_spec(seed=s, n=1) for s in (1, 2, 3)]
        results = ParallelExecutor(workers=2).run(specs)
        assert [r.spec.seed for r in results] == [1, 2, 3]


class TestRunRecord:
    def test_is_erroneous(self):
        assert RunRecord(index=0, outcome="OMM").is_erroneous
        assert not RunRecord(index=0, outcome="Vanished").is_erroneous
        assert not RunRecord(index=0).is_erroneous
