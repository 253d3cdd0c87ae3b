"""Result bytes do not depend on the golden-chain period Cf.

``CosimConfig.snapshot_interval`` (Cf) only decides where phase 1
restores from and where phase 3's golden-convergence jump may land, so
it is a speed/memory knob: it is not part of ``ExperimentSpec`` and must
never move canonical result bytes.  This runs a few cells on ``p-wc`` at
the benchmark's smoke scale under Cf 1,000 (the previous default), 250
(the default) and 97 (a divisor of neither) and compares the bytes.

The cells cover SEU injection on the L2 cache, crossbar and PCIe (whose
injection window is the DMA transfer), SRAM double-bit faults (they hand
over, so phase 3 runs) and one QRR cell, whose phase 3 does jump to the
golden halt state at checkpoints that differ with Cf.
"""

from __future__ import annotations

import pytest

from repro.api import ExperimentSpec, Session, dumps_canonical
from repro.api.spec import DEFAULT_MACHINE
from repro.mixedmode.platform import CosimConfig, GoldenRun, MixedModePlatform

BENCHMARK = "p-wc"
SCALE = 1.0 / 40_000.0
SEED = 2015
N = 8
INTERVALS = (1_000, 250, 97)
#: (mode, component, fault)
CELLS = (
    ("injection", "l2c", None),
    ("injection", "ccx", None),
    ("injection", "pcie", None),
    ("injection", "l2c", "sram:k=2"),
    ("qrr", "mcu", None),
)


class _CfSession(Session):
    """A session whose platforms keep a golden chain every ``cf`` cycles."""

    def __init__(self, cf: int) -> None:
        super().__init__()
        self.cf = cf

    def platform(self, spec: ExperimentSpec) -> MixedModePlatform:
        key = spec.platform_key()
        if key not in self._platforms:
            self._platforms[key] = MixedModePlatform(
                spec.benchmark,
                machine_config=spec.machine,
                cosim_config=CosimConfig(snapshot_interval=self.cf),
                scale=spec.scale,
                seed=spec.seed,
                pcie_input=spec.pcie_input,
                engine=spec.engine or self.engine,
            )
        return self._platforms[key]


def _spec(mode, component, fault) -> ExperimentSpec:
    return ExperimentSpec(
        benchmark=BENCHMARK,
        component=component,
        mode=mode,
        machine=DEFAULT_MACHINE,
        scale=SCALE,
        seed=SEED,
        n=N,
        fault=fault,
    )


@pytest.fixture(scope="module")
def runs() -> dict:
    """Cf -> (session, canonical bytes of every cell, the machine cycle
    at which each phase 3 that jumped to the golden halt state began)."""
    finish = GoldenRun.finish

    def logged_finish(golden, machine, hang_factor_cycles):
        cycle, advanced = machine.cycle, machine.cycles_advanced
        result = finish(golden, machine, hang_factor_cycles)
        if machine.cycle - cycle != machine.cycles_advanced - advanced:
            jumps.append(cycle)
        return result

    out = {}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(GoldenRun, "finish", logged_finish)
        for cf in INTERVALS:
            session = _CfSession(cf)
            jumps: list[int] = []
            texts = [
                dumps_canonical(session.run(_spec(*cell)).to_dict())
                for cell in CELLS
            ]
            out[cf] = (session, texts, jumps)
    return out


@pytest.mark.parametrize("cf", INTERVALS[1:])
def test_result_bytes_do_not_depend_on_cf(runs, cf):
    want = runs[INTERVALS[0]][1]
    got = runs[cf][1]
    for cell, a, b in zip(CELLS, want, got):
        assert a == b, f"Cf={cf} moved the bytes of {cell}"


def test_the_intervals_build_different_chains(runs):
    """Every platform keeps a checkpoint every Cf cycles."""
    for cf in INTERVALS:
        for platform in runs[cf][0].platforms():
            cycles = platform.golden.cycles
            assert cycles > 2 * INTERVALS[0]
            assert sorted(platform.golden.snapshots) == list(range(0, cycles, cf))


def test_phase_3_jumps_depend_on_cf(runs):
    """The bytes match although the golden-convergence jumps do not:
    every Cf jumps at least once, and the densest chain jumps more."""
    jumps = {cf: runs[cf][2] for cf in INTERVALS}
    assert all(jumps.values()), jumps
    assert len(jumps[97]) > len(jumps[1_000]), jumps
