"""Delta snapshot chain tests (repro.system.snapshots).

The chain must be indistinguishable from the dict of full snapshots it
replaced: materialized checkpoints bit-identical to ``Machine.snapshot()``
at the same cycle, in any materialization order, restorable at any
point, and strictly cheaper to store than full copies.
"""

import random

import pytest

from repro.mixedmode.platform import CosimConfig, MixedModePlatform
from repro.system.machine import Machine, MachineConfig
from repro.system.snapshots import SnapshotChain
from repro.workloads import build_workload

CFG = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16)


#: four lines per bank: the golden run evicts lines and writes dirty
#: victims back, so line records move in and out of the banks; a small
#: L1 makes cores store it whole as often as sparsely
TINY_L2 = MachineConfig(
    cores=4, threads_per_core=2, l2_banks=8, l2_sets=2, l2_ways=2, l1_words=64
)


def _loaded_machine(
    benchmark="fft",
    seed=2015,
    scale=1 / 120_000,
    engine="event",
    config=CFG,
    pcie_input=False,
):
    machine = Machine(config, engine=engine)
    machine.load_workload(
        build_workload(
            benchmark, threads=config.total_threads, scale=scale, seed=seed
        ),
        pcie_input=pcie_input,
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


def _count_resident_dma_writes(machine) -> list:
    """Wrap every bank's ``dma_update``; the returned one-element list
    counts device writes that landed in a resident L2 line."""
    hits = [0]
    for bank in machine.l2banks:
        def dma_update(addr, value, bank=bank, inner=bank.dma_update):
            if bank.state.lookup(addr) is not None:
                hits[0] += 1
            inner(addr, value)

        bank.dma_update = dma_update
    return hits


@pytest.mark.parametrize("engine", ["event", "reference"])
@pytest.mark.parametrize(
    "workload, config, pcie_input, interval, checkpoints",
    # the DMA lands within ~150 cycles: checkpoint densely across it
    [("fft", TINY_L2, False, 1000, 10), ("p-wc", CFG, True, 10, 20)],
    ids=["l2-evictions", "pcie-dma"],
)
def test_shuffled_materialization_order(
    engine, workload, config, pcie_input, interval, checkpoints
):
    """Checkpoints read in shuffled order -- the memo sometimes ahead of
    the target, sometimes behind it -- with halt-state reads in between
    still equal the full snapshots of a shadow machine."""
    make = dict(
        benchmark=workload, engine=engine, config=config, pcie_input=pcie_input
    )
    machine = _loaded_machine(**make)
    shadow = _loaded_machine(**make)
    dma_hits = _count_resident_dma_writes(machine)
    chain = SnapshotChain(machine)
    fulls = {}
    chain.checkpoint()
    fulls[0] = shadow.snapshot()
    for _ in range(checkpoints):
        machine.run_cycles(interval)
        shadow.run_cycles(interval)
        chain.checkpoint()
        fulls[machine.cycle] = shadow.snapshot()
    machine.run_cycles(interval // 2)
    shadow.run_cycles(interval // 2)
    chain.finalize()
    halt = shadow.snapshot()
    if pcie_input:
        assert dma_hits[0] > 0, "no DMA write landed in a resident line"
    else:
        assert sum(mcu.writes for mcu in machine.mcus) > 0, "no dirty writeback"
    order = list(fulls) * 2
    random.Random(17).shuffle(order)
    steps = list(zip(order, order[1:]))
    assert any(a < b for a, b in steps) and any(a > b for a, b in steps)
    for k, cycle in enumerate(order):
        assert chain[cycle] == fulls[cycle], f"checkpoint {cycle} diverged"
        if k % 3 == 0:
            assert chain.halt_state() == halt


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


def test_delta_l2_lines_are_a_fraction_of_full_copies():
    """Dirty banks keep their changed line records only: on fft the
    chain stores under a quarter of the line records full copies hold."""
    platform = MixedModePlatform(
        "fft", machine_config=CFG, scale=1 / 120_000, seed=2015
    )
    stats = platform.golden.snapshots.storage_stats()
    assert stats["checkpoints"] > 1
    assert 0 < stats["l2_lines_stored"] < stats["l2_lines_full"] / 4
    assert 0 < stats["threads_stored"] <= stats["threads_full"]


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
