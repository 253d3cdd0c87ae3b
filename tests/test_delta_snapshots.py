"""Delta snapshot chain tests (repro.system.snapshots).

The chain must be indistinguishable from the dict of full snapshots it
replaced: materialized checkpoints bit-identical to ``Machine.snapshot()``
at the same cycle, restorable at any point, and strictly cheaper to
store than full copies.
"""

import pytest

from repro.mixedmode.platform import CosimConfig, MixedModePlatform
from repro.system.machine import Machine, MachineConfig
from repro.system.snapshots import SnapshotChain
from repro.workloads import build_workload

CFG = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16)


def _loaded_machine(benchmark="fft", seed=2015, scale=1 / 120_000, engine="event"):
    machine = Machine(CFG, engine=engine)
    machine.load_workload(
        build_workload(
            benchmark, threads=CFG.total_threads, scale=scale, seed=seed
        )
    )
    return machine


@pytest.mark.parametrize("engine", ["event", "reference"])
def test_materialized_checkpoints_equal_full_snapshots(engine):
    machine = _loaded_machine(engine=engine)
    shadow = _loaded_machine(engine=engine)  # identical twin, full snaps
    chain = SnapshotChain(machine)
    interval = 400
    fulls = {}
    chain.checkpoint()
    fulls[0] = shadow.snapshot()
    for _ in range(6):
        machine.run_cycles(interval)
        shadow.run_cycles(interval)
        chain.checkpoint()
        fulls[machine.cycle] = shadow.snapshot()
    # finalize records the state between checkpoints (the golden halt)
    machine.run_cycles(150)
    shadow.run_cycles(150)
    chain.finalize()
    halt = shadow.snapshot()
    assert chain.halt_state() == halt  # folded from the base
    assert list(chain) == list(fulls)
    for cycle, full in fulls.items():
        assert chain[cycle] == full, f"checkpoint at cycle {cycle} diverged"
        assert chain.halt_state() == halt  # folded from the memo


def test_restore_roundtrip_from_any_checkpoint():
    machine = _loaded_machine()
    chain = SnapshotChain(machine)
    chain.checkpoint()
    for _ in range(4):
        machine.run_cycles(300)
        chain.checkpoint()
    chain.finalize()
    final = machine.run()
    for cycle in list(chain):
        machine.restore(chain[cycle])
        assert machine.cycle == cycle
        replay = machine.run()
        assert replay.output == final.output
        assert replay.cycles == final.cycles
        assert replay.retired == final.retired


def test_restore_during_capture_is_rejected():
    machine = _loaded_machine()
    chain = SnapshotChain(machine)
    snap_before = machine.snapshot()
    chain.checkpoint()
    machine.run_cycles(50)
    with pytest.raises(RuntimeError):
        machine.restore(snap_before)
    chain.finalize()
    machine.restore(snap_before)  # fine once capture is closed


def test_non_monotonic_checkpoint_rejected():
    machine = _loaded_machine()
    chain = SnapshotChain(machine)
    chain.checkpoint()
    with pytest.raises(ValueError):
        chain.checkpoint()  # same cycle again
    chain.finalize()


def test_delta_storage_is_smaller_than_full_copies():
    platform = MixedModePlatform(
        "fft", machine_config=CFG, scale=1 / 120_000, seed=2015
    )
    chain = platform.golden.snapshots
    stats = chain.storage_stats()
    assert stats["checkpoints"] == len(chain) > 1
    # DRAM: deltas store written words only, full copies store everything
    assert stats["dram_words_stored"] < stats["dram_words_full"]
    # components: idle banks/MCUs/PCIe skip their per-checkpoint copy
    assert stats["components_stored"] < stats["components_total"]


def test_platform_golden_chain_serves_injection_restores():
    """The golden-isolation contract end-to-end: restoring from the
    chain and replaying produces the golden output again."""
    platform = MixedModePlatform(
        "fft", machine_config=CFG, scale=1 / 120_000, seed=2015
    )
    golden = platform.golden
    cycle, snap = golden.snapshot_at_or_before(golden.cycles // 2)
    assert cycle <= golden.cycles // 2
    machine = platform.machine
    machine.restore(snap)
    machine.run_until_cycle(golden.cycles // 2)
    result = machine.run(hang_factor_cycles=golden.cycles * 4 + 50_000)
    assert result.completed
    assert result.output == golden.output
