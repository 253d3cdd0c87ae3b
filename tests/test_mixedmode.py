"""Tests for the mixed-mode platform and adapters (repro.mixedmode)."""

import random

import pytest

from repro.faults.event import FaultEvent
from repro.faults.models import SingleBitFlip
from repro.mixedmode.adapters import (
    CcxCosimAdapter,
    L2cCosimAdapter,
    McuCosimAdapter,
    PcieCosimAdapter,
    make_adapter,
)
from repro.mixedmode.performance import PerformanceModel, table2_model
from repro.mixedmode.platform import CosimConfig, MixedModePlatform
from repro.system.machine import Machine, MachineConfig
from repro.system.outcome import Outcome
from repro.workloads import build_workload

CFG = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16)


def _flip_bit(platform, cycle, bit, **kwargs):
    """An inline SEU run flipping target ``bit`` of L2C bank 0, with a
    warm-up drawn from a stream seeded by the bit."""
    event = FaultEvent("seu", "l2c", 0, cycle, params={"bit": bit})
    warmup = platform.draw_warmup(random.Random(bit * 1_000_003))
    return platform.run_injection(event, warmup, **kwargs)


def _sampled_run(platform, component, rng):
    """An inline SEU run at a point drawn like the default campaign's."""
    event = SingleBitFlip().sample(platform, component, rng)
    return platform.run_injection(event, platform.draw_warmup(rng))


@pytest.fixture(scope="module")
def platform():
    return MixedModePlatform("fft", machine_config=CFG, scale=1 / 150_000)


@pytest.fixture(scope="module")
def pcie_platform():
    return MixedModePlatform(
        "blsc", machine_config=CFG, scale=1 / 100_000, pcie_input=True
    )


class TestGoldenRun:
    def test_golden_artifacts(self, platform):
        assert platform.golden.cycles > 0
        assert platform.golden.output
        assert 0 in platform.golden.snapshots

    def test_snapshot_lookup(self, platform):
        cycle, snap = platform.golden.snapshot_at_or_before(
            platform.golden.cycles - 1
        )
        assert cycle <= platform.golden.cycles - 1
        assert snap["cycle"] == cycle

    def test_pcie_window_present_for_dma_runs(self, pcie_platform):
        lo, hi = pcie_platform.golden.pcie_window
        assert hi > lo >= 0


class TestAdapters:
    def test_make_adapter_dispatch(self, platform):
        machine = platform.machine
        assert isinstance(make_adapter(machine, "l2c", 0), L2cCosimAdapter)
        assert isinstance(make_adapter(machine, "mcu", 0), McuCosimAdapter)
        assert isinstance(make_adapter(machine, "ccx"), CcxCosimAdapter)
        assert isinstance(make_adapter(machine, "pcie"), PcieCosimAdapter)
        with pytest.raises(ValueError):
            make_adapter(machine, "niu")

    def test_l2c_adapter_starts_clean(self, platform):
        adapter = L2cCosimAdapter(platform.machine, 0)
        status = adapter.compare()
        assert status.clean
        assert status.exitable

    def test_golden_dram_is_isolated(self, platform):
        adapter = L2cCosimAdapter(platform.machine, 0)
        before = platform.machine.dram.read_word(0x800000)
        adapter.golden_port.write_word(0x800000, 0x1234)
        assert platform.machine.dram.read_word(0x800000) == before

    def test_memory_divergence_detection(self, platform):
        adapter = L2cCosimAdapter(platform.machine, 0)
        adapter.target_port.write_word(0x800000, 1)
        adapter.golden_port.write_word(0x800000, 2)
        assert 0x800000 in adapter.memory_divergence()
        # symmetric restore for other tests
        adapter.target_port.write_word(0x800000, 0)

    def test_cache_corruption_words_named_by_golden(self, platform):
        adapter = L2cCosimAdapter(platform.machine, 0)
        # make a line resident in both, then corrupt the target's data
        from repro.mem.l2state import L2BankState

        state = L2BankState(0, platform.machine.amap, CFG.l2_ways)
        state.install(0x0, [3] * 8)
        adapter.target.load_state(state)
        adapter.golden.load_state(state)
        li = adapter.target._line_index(platform.machine.amap.set_of(0x0), 0)
        adapter.target.data_sram.write(li, adapter.target.data_sram.read(li) ^ 0xFF)
        words = adapter.cache_corruption_words()
        assert 0x0 in words


class TestInjectionRuns:
    def test_deterministic_given_same_inputs(self, platform):
        runs = []
        for _ in range(2):
            run = _sampled_run(platform, "l2c", random.Random(99))
            runs.append((run.outcome, run.cosim.cosim_cycles, run.flip_location))
        assert runs[0] == runs[1]

    def test_perf_counter_flip_vanishes(self, platform):
        """A flip in a non-functional register must vanish quickly."""
        bits = platform.machine.l2banks  # force lazily-built structures
        from repro.uncore.l2c import L2cRtl

        probe = L2cRtl(0, platform.machine.amap, CFG.l2_ways, send_mcu=lambda r: None)
        target_bits = probe.target_bits()
        idx = next(
            i for i, (name, _e, _b) in enumerate(target_bits) if name == "perf_hits"
        )
        run = _flip_bit(platform, platform.golden.cycles // 2, idx)
        assert run.outcome is Outcome.VANISHED
        assert not run.ran_phase3

    def test_config_flip_persists(self, platform):
        """Config-register flips are exactly the Fig. 6 persistent class."""
        from repro.uncore.l2c import L2cRtl

        probe = L2cRtl(0, platform.machine.amap, CFG.l2_ways, send_mcu=lambda r: None)
        idx = next(
            i for i, (name, _e, _b) in enumerate(probe.target_bits())
            if name == "cfg_mode"
        )
        run = _flip_bit(
            platform, platform.golden.cycles // 2, idx, cosim_cycle_cap=2_000
        )
        assert run.persistent
        assert run.outcome is None

    @pytest.mark.parametrize("component", ["l2c", "mcu", "ccx"])
    def test_each_component_injectable(self, platform, component):
        rng = random.Random(5)
        for _ in range(3):
            run = _sampled_run(platform, component, rng)
            assert run.persistent or run.outcome is not None

    def test_pcie_injection(self, pcie_platform):
        run = _sampled_run(pcie_platform, "pcie", random.Random(5))
        assert run.persistent or run.outcome is not None

    def test_pcie_sampling_needs_window(self, platform):
        with pytest.raises(ValueError):
            SingleBitFlip().sample(platform, "pcie", random.Random(0))

    def test_machine_structure_restored_after_run(self, platform):
        from repro.uncore.highlevel.l2c import HighLevelL2Bank

        _sampled_run(platform, "l2c", random.Random(3))
        assert all(isinstance(b, HighLevelL2Bank) for b in platform.machine.l2banks)


class TestPerformanceModel:
    """Table 2 arithmetic."""

    def test_total_formula(self):
        model = PerformanceModel()
        # total = 70 + L/4M seconds
        assert model.seconds_per_run(400e6) == pytest.approx(70 + 400e6 / 4e6)

    def test_throughput_exceeds_2m_beyond_280m(self):
        model = PerformanceModel()
        assert model.throughput(281e6) > 2_000_000
        assert model.throughput(200e6) < 2_000_000

    def test_crossover_length_matches_paper(self):
        model = PerformanceModel()
        assert model.crossover_length(2_000_000) == pytest.approx(280e6, rel=0.01)

    def test_speedup_over_20000x(self):
        model = PerformanceModel()
        assert model.speedup_vs_rtl(300e6) > 20_000

    def test_table2_rows(self):
        rows = table2_model(400e6)
        assert rows[0].seconds == pytest.approx(50.0)
        assert rows[1].seconds == pytest.approx(20.0)
        assert rows[2].seconds == pytest.approx(400e6 / 4e6)

    def test_radix_case(self):
        """Paper: Radix at L=120M achieves about 1M cycles/sec."""
        model = PerformanceModel()
        assert model.throughput(120e6) == pytest.approx(1.2e6, rel=0.01)
