"""Differential tests: the event engine vs. the reference stepper.

The event engine's whole contract is *bit-identical observables*: for
any spec, every RunResult field, every canonical result byte and every
snapshot must match what the original everything-every-cycle stepper
produces.  These tests enforce that across all experiment modes,
several workloads/seeds, a live-fault campaign, and every way
``Machine.run`` can end (completion, trap, watchdog, cycle caps).
"""

import pytest

from repro.api import ExperimentSpec, Session, dumps_canonical
from repro.mixedmode.platform import MixedModePlatform
from repro.system.machine import ENGINES, Machine, MachineConfig
from repro.workloads import build_workload

CFG = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16)

#: Engines checked against "reference".
FAST_ENGINES = tuple(e for e in ENGINES if e != "reference")

#: (benchmark, seed, scale) cells for the differential sweep.
GOLDEN_CASES = [
    ("fft", 2015, 1 / 120_000),
    ("flui", 7, 1 / 120_000),
    ("radi", 42, 1 / 120_000),
    ("p-wc", 3, 2e-5),
]


def _machines(benchmark, seed, scale, engines=ENGINES):
    image = build_workload(
        benchmark, threads=CFG.total_threads, scale=scale, seed=seed
    )
    machines = {}
    for engine in engines:
        machine = Machine(CFG, engine=engine)
        machine.load_workload(image)
        machines[engine] = machine
    return machines


def _result_tuple(res):
    return (res.completed, res.cycles, res.output, res.trap, res.hung, res.retired)


class TestGoldenRuns:
    @pytest.mark.parametrize("bench,seed,scale", GOLDEN_CASES)
    def test_run_identical(self, bench, seed, scale):
        machines = _machines(bench, seed, scale)
        results = {e: m.run() for e, m in machines.items()}
        snaps = {e: m.snapshot() for e, m in machines.items()}
        for engine in FAST_ENGINES:
            assert _result_tuple(results[engine]) == _result_tuple(
                results["reference"]
            ), engine
            assert snaps[engine] == snaps["reference"], engine

    def test_run_cycles_and_until_identical(self):
        machines = _machines("fft", 1, 1 / 120_000)
        for m in machines.values():
            m.run_cycles(137)
        ref = machines["reference"].snapshot()
        for engine in FAST_ENGINES:
            assert machines[engine].snapshot() == ref, engine
        for m in machines.values():
            m.run_until_cycle(1009)
        ref = machines["reference"].snapshot()
        for engine in FAST_ENGINES:
            assert machines[engine].cycle == 1009
            assert machines[engine].snapshot() == ref, engine

    def test_hang_detection_identical(self):
        """The fast engines' idle hops must fire the watchdog at the
        exact cycle the reference stepper does."""
        from repro.core.program import ProgramBuilder
        from repro.workloads.base import WorkloadImage

        lock = 0x10000
        b = ProgramBuilder("t")
        b.ldi(1, lock)
        b.spin_lock(1, 2)  # never succeeds: initialized to 1
        b.halt()
        h = ProgramBuilder("h")
        h.halt()
        image = WorkloadImage(
            name="hang",
            programs=[b.build(), h.build()],
            regions=[(0x10000, 0x1000, "globals")],
            init_words={lock: 1},
        )
        results = {}
        for engine in ENGINES:
            machine = Machine(CFG, engine=engine)
            machine.load_workload(image)
            results[engine] = machine.run(max_cycles=500_000)
        assert results["reference"].hung
        for engine in FAST_ENGINES:
            assert _result_tuple(results[engine]) == _result_tuple(
                results["reference"]
            ), engine

    def test_mid_debt_snapshots_identical(self):
        """Snapshots taken at arbitrary cycle boundaries must match."""
        machines = _machines("radi", 5, 1 / 120_000)
        for target in (73, 74, 75, 211, 500, 1501):
            for m in machines.values():
                m.run_until_cycle(target)
            ref = machines["reference"].snapshot()
            for engine in FAST_ENGINES:
                assert machines[engine].snapshot() == ref, (engine, target)


class TestRunExits:
    """Every way ``Machine.run`` (and a bare ``run_until_cycle``) can
    end must leave identical results and machine state."""

    @staticmethod
    def _check(machines, results):
        snaps = {e: m.snapshot() for e, m in machines.items()}
        for engine in FAST_ENGINES:
            assert _result_tuple(results[engine]) == _result_tuple(
                results["reference"]
            ), engine
            assert snaps[engine] == snaps["reference"], engine

    def test_trap_identical(self):
        """A wild-pointer load traps one thread while others still run."""
        from repro.core.program import ProgramBuilder
        from repro.workloads.base import WorkloadImage

        base = 0x10000
        wild = ProgramBuilder("wild")
        wild.ldi(1, base)
        wild.ldi(2, 0)
        wild.ldi(3, 40)
        loop = wild.here
        wild.st(2, 1, 0)
        wild.ld(4, 1, 8)
        wild.addi(2, 2, 1)
        wild.blt(2, 3, loop)
        wild.ldi(1, 0x7FFF_0000)  # outside every region
        wild.ld(4, 1, 0)
        wild.halt()
        busy = ProgramBuilder("busy")
        busy.ldi(1, base + 0x100)
        busy.ldi(2, 0)
        busy.ldi(3, 400)
        loop = busy.here
        busy.st(2, 1, 0)
        busy.addi(2, 2, 1)
        busy.blt(2, 3, loop)
        busy.halt()
        image = WorkloadImage(
            name="wild",
            programs=[wild.build(), busy.build(), busy.build()],
            regions=[(base, 0x1000, "globals")],
        )
        machines = {}
        results = {}
        for engine in ENGINES:
            machine = Machine(CFG, engine=engine)
            machine.load_workload(image)
            machines[engine] = machine
            results[engine] = machine.run()
        assert results["reference"].trap is not None
        assert not results["reference"].completed
        self._check(machines, results)

    @pytest.mark.parametrize("cap", [1, 313, 1500])
    def test_max_cycles_cap_identical(self, cap):
        machines = _machines("fft", 2015, 1 / 120_000)
        results = {e: m.run(max_cycles=cap) for e, m in machines.items()}
        assert results["reference"].hung
        assert results["reference"].cycles == cap
        self._check(machines, results)

    @pytest.mark.parametrize("cap", [2, 777])
    def test_hang_factor_cap_identical(self, cap):
        machines = _machines("radi", 42, 1 / 120_000)
        results = {
            e: m.run(hang_factor_cycles=cap) for e, m in machines.items()
        }
        assert results["reference"].hung
        assert results["reference"].cycles == cap
        self._check(machines, results)

    def test_run_until_cycle_after_halt_identical(self):
        """No early stop: the uncore drains and the cycle count reaches
        the target exactly, then ``run`` completes without stepping."""
        probe = _machines("fft", 3, 1 / 120_000, engines=("reference",))
        length = probe["reference"].run().cycles
        machines = _machines("fft", 3, 1 / 120_000)
        target = length + 250
        for m in machines.values():
            m.run_until_cycle(target)
            assert m.cycle == target
            assert m.live_threads() == 0
            assert m.uncore_idle()
        results = {e: m.run() for e, m in machines.items()}
        assert results["reference"].completed
        assert results["reference"].cycles == target
        self._check(machines, results)


class TestCampaignModes:
    """Full campaign cells must serialize to identical canonical bytes."""

    @pytest.mark.parametrize(
        "mode,component,bench,seed,n",
        [
            ("injection", "l2c", "fft", 2015, 3),
            ("injection", "mcu", "flui", 9, 3),
            ("injection", "ccx", "radi", 5, 2),
            ("qrr", "l2c", "fft", 2015, 2),
            ("qrr", "mcu", "flui", 4, 2),
            ("golden", None, "radi", 11, 1),
        ],
    )
    def test_canonical_bytes_identical(self, mode, component, bench, seed, n):
        spec = ExperimentSpec(
            benchmark=bench,
            component=component,
            mode=mode,
            machine=CFG,
            scale=1 / 120_000,
            seed=seed,
            n=n,
        )
        blobs = {
            engine: dumps_canonical(
                Session(engine=engine).run(spec).to_dict()
            )
            for engine in ENGINES
        }
        for engine in FAST_ENGINES:
            assert blobs[engine] == blobs["reference"], engine

    @pytest.mark.parametrize("fault", ["stuck:value=1,hold=400", "flicker:period=40"])
    def test_live_fault_campaign_identical(self, fault):
        """Live faults (held across co-simulation) re-assert corrupted
        state on their own schedule; the outcome bytes must stay
        identical across engines."""
        spec = ExperimentSpec(
            benchmark="fft",
            component="l2c",
            mode="injection",
            machine=CFG,
            scale=1 / 120_000,
            seed=2015,
            n=2,
            fault=fault,
        )
        blobs = {
            engine: dumps_canonical(
                Session(engine=engine).run(spec).to_dict()
            )
            for engine in ENGINES
        }
        for engine in FAST_ENGINES:
            assert blobs[engine] == blobs["reference"], engine

    @pytest.mark.parametrize(
        "component,bench,fault,scale",
        [
            ("pcie", "p-wc", None, 2e-5),
            ("l2c", "fft", "sram:k=2", 1 / 120_000),
            ("ccx", "radi", "mbu:k=2", 1 / 120_000),
            ("ccx", "fft", "flicker:period=40", 1 / 120_000),
            ("mcu", "flui", "flicker:period=40", 1 / 120_000),
        ],
    )
    def test_sleeping_adapter_cells_identical(self, component, bench, fault, scale):
        """The L2C, CCX and PCIe adapters sleep while both RTL copies are
        idle (the MCU's datapath stages skip instead); the reference
        engine ticks them every cycle.  Injections, SRAM bursts and
        intermittent faults that wake them mid-window must leave the
        bytes identical."""
        spec = ExperimentSpec(
            benchmark=bench,
            component=component,
            mode="injection",
            machine=CFG,
            scale=scale,
            seed=2015,
            n=2,
            fault=fault,
        )
        blobs = {
            engine: dumps_canonical(
                Session(engine=engine).run(spec).to_dict()
            )
            for engine in ENGINES
        }
        for engine in FAST_ENGINES:
            assert blobs[engine] == blobs["reference"], engine

    def test_spec_engine_field_is_digest_neutral(self):
        base = ExperimentSpec(machine=CFG, scale=1 / 120_000, n=2)
        for engine in ENGINES:
            spec = base.with_(engine=engine)
            assert spec.digest() == base.digest()
            assert "engine" not in spec.to_dict()
            assert spec == base  # compare=False: results are identical
        with pytest.raises(ValueError, match="ExperimentSpec.engine"):
            ExperimentSpec(machine=CFG, engine="turbo")

    def test_session_honors_spec_engine(self):
        spec = ExperimentSpec(
            machine=CFG, scale=1 / 120_000, n=1, engine="reference"
        )
        session = Session()
        platform = session.platform(spec)
        assert platform.machine.engine == "reference"


class TestGoldenSnapshotChains:
    def test_every_checkpoint_identical(self):
        """Delta-chain snapshots must match at every checkpoint cycle
        across engines (reference captures all-dirty)."""
        plats = {
            engine: MixedModePlatform(
                "fft",
                machine_config=CFG,
                scale=1 / 120_000,
                seed=2015,
                engine=engine,
            )
            for engine in ENGINES
        }
        ref = plats["reference"].golden
        assert len(ref.snapshots) > 1, "need at least one delta checkpoint"
        for engine in FAST_ENGINES:
            fast = plats[engine].golden
            assert list(ref.snapshots) == list(fast.snapshots), engine
            for cycle in ref.snapshots:
                assert ref.snapshots[cycle] == fast.snapshots[cycle], (
                    engine,
                    cycle,
                )
