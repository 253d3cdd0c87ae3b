"""One RTL copy until the fault: the lazily forked golden copy.

Warm-up ticks the co-simulation target alone; the adapter forks the
golden copy from the target at the injection.  Touching
``adapter.golden`` right after ``attach()`` forks at once, which is the
always-ticked golden copy, the reference here.  Twin restores, one each
way, must agree at the injection cycle on everything the golden side
holds -- registers, SRAMs, Python-side fields, the golden memory fork,
its written set and the L2C's fills in flight -- and the same fault
must then give the same injection record.

The DMA platform streams the input file over PCIe while an L2C or MCU
adapter warms up, so device writes land in live memory during warm-up.
"""

from __future__ import annotations

import copy
import random

import pytest

from repro.faults.event import FaultEvent
from repro.faults.models import SingleBitFlip, parse_fault
from repro.mixedmode.platform import MixedModePlatform
from repro.system.machine import ENGINES, MachineConfig

#: a tiny L2 (2 sets x 2 ways per bank), so warm-up evicts dirty lines
#: (target memory writes the mirror must carry) and forks land while
#: fills are in flight
CFG = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=2, l2_ways=2)
WARMUP = 700


@pytest.fixture(scope="module", params=ENGINES)
def platforms(request):
    engine = request.param
    return {
        "plain": MixedModePlatform(
            "fft", machine_config=CFG, scale=1 / 150_000, engine=engine
        ),
        "dma": MixedModePlatform(
            "blsc",
            machine_config=CFG,
            scale=1 / 100_000,
            pcie_input=True,
            engine=engine,
        ),
    }


def _dma_words(machine) -> int:
    """Input-file words the DMA engine has fetched so far."""
    pcie = machine.pcie
    if hasattr(pcie, "target"):  # the PCIe co-simulation adapter
        return pcie.target.dma_progress.value
    return pcie.progress


def _warm_up(platform, component, instance, cycle, eager):
    """Phase 1 of an injection run: the adapter at the injection cycle,
    and the input-file words the DMA engine fetched during warm-up."""
    machine = platform.machine
    machine.restore(platform.golden.snapshot_at_or_before(cycle)[1])
    machine.run_until_cycle(cycle)
    adapter = platform._attach_quiesced(component, instance)
    if eager:
        adapter.golden
    start = _dma_words(machine)
    machine.run_until_cycle(machine.cycle + WARMUP)
    return adapter, _dma_words(machine) - start


def _golden_side(adapter) -> dict:
    """Everything the golden side holds (forking it when still lazy)."""
    golden = adapter.golden
    side = {
        "state": golden.snapshot(),
        "fields": {n: copy.copy(getattr(golden, n)) for n in adapter._FORK_FIELDS},
        "target": adapter.target.snapshot(),
        "erroneous_output_cycle": adapter.erroneous_output_cycle,
        "golden_diverged": adapter.golden_diverged,
    }
    if adapter.target_port is not None:
        side["dram"] = dict(adapter.golden_dram.words)
        side["written"] = set(adapter.golden_port.written)
    if hasattr(adapter, "_golden_pending_reads"):
        side["pending"] = dict(adapter._golden_pending_reads)
    return side


def _twin_sides(platform, component, instance, cycle) -> tuple[dict, dict]:
    sides = []
    for eager in (True, False):
        adapter, _dma = _warm_up(platform, component, instance, cycle, eager)
        sides.append(_golden_side(adapter))
        adapter.release()
    return sides[0], sides[1]


def _twin_runs(platform, monkeypatch, event, fault=None):
    """``run_injection`` with the golden copy forked at attach, then lazily."""
    lazy_attach = platform._attach_quiesced

    def eager_attach(component, instance):
        adapter = lazy_attach(component, instance)
        adapter.golden
        return adapter

    runs = []
    for attach in (eager_attach, lazy_attach):
        monkeypatch.setattr(platform, "_attach_quiesced", attach)
        run = platform.run_injection(copy.deepcopy(event), WARMUP, fault=fault)
        runs.append(run.to_dict())
    return runs[0], runs[1]


def _points(platform, component, n, seed=2015):
    rng = random.Random(seed)
    events = [SingleBitFlip().sample(platform, component, rng) for _ in range(n)]
    return [(e.cycle, e.instance, e.params["bit"]) for e in events]


def _seu(component, cycle, instance, bit) -> FaultEvent:
    return FaultEvent("seu", component, instance, cycle, params={"bit": bit})


def _dma_instance(platform, component) -> int:
    """The L2 bank or MCU the DMA transfer writes through."""
    amap = platform.machine.amap
    bank = amap.bank_of(platform.image.input_dest)
    return bank if component == "l2c" else amap.mcu_of_bank(bank)


@pytest.mark.parametrize("component", ["l2c", "mcu", "ccx"])
def test_fork_equals_always_ticked_golden(platforms, component):
    platform = platforms["plain"]
    seen = {"written": False, "pending": False}
    for cycle, instance, _bit in _points(platform, component, 6):
        eager, lazy = _twin_sides(platform, component, instance, cycle)
        assert lazy == eager, (component, cycle, instance)
        seen["written"] |= bool(eager.get("written"))
        seen["pending"] |= bool(eager.get("pending"))
    if component != "ccx":
        # the target wrote memory during warm-up: the mirror carried it
        assert seen["written"]
    if component == "l2c":
        # fills were in flight at the fork: the recorded reads fed them
        assert seen["pending"]


@pytest.mark.parametrize("component", ["l2c", "mcu", "ccx"])
def test_same_flip_same_run(platforms, monkeypatch, component):
    platform = platforms["plain"]
    for cycle, instance, bit in _points(platform, component, 3, seed=7):
        eager, lazy = _twin_runs(
            platform, monkeypatch, _seu(component, cycle, instance, bit)
        )
        assert lazy == eager


@pytest.mark.parametrize(
    "component,fault",
    [("l2c", "sram:k=2"), ("mcu", "stuck:value=1"), ("ccx", "flicker:period=7,window=200")],
)
def test_fault_models_same_run(platforms, monkeypatch, component, fault):
    """``flip_sram``, ``force_at`` and ``flip_at`` fork like ``flip``."""
    platform = platforms["plain"]
    model = parse_fault(fault)
    rng = random.Random(11)
    for _ in range(2):
        event = model.sample(platform, component, rng)
        eager, lazy = _twin_runs(platform, monkeypatch, event, model)
        assert lazy == eager


@pytest.mark.parametrize("component", ["pcie", "l2c", "mcu"])
def test_dma_during_warm_up(platforms, monkeypatch, component):
    platform = platforms["dma"]
    lo, _hi = platform.golden.pcie_window
    if component == "pcie":
        points = _points(platform, component, 3)
    else:
        points = [(lo + 5, _dma_instance(platform, component), 4321)]
    for cycle, instance, bit in points:
        adapter, dma_words = _warm_up(platform, component, instance, cycle, False)
        adapter.release()
        assert dma_words > 0  # device writes land during warm-up
        eager, lazy = _twin_sides(platform, component, instance, cycle)
        assert lazy == eager, (component, cycle, instance)
        eager, lazy = _twin_runs(
            platform, monkeypatch, _seu(component, cycle, instance, bit)
        )
        assert lazy == eager


def _inject(adapter, entry: str):
    """Corrupt one bit through ``entry``; returns (storage, entry, xor)."""
    target = adapter.target
    if entry == "flip_sram":
        name = next(iter(target.srams()))
        adapter.flip_sram(name, 0, 0)
        return (name, 0, 1)
    name, row, bit = target.target_bits()[0]
    if entry == "flip":
        adapter.flip(0)
    elif entry == "flip_at":
        adapter.flip_at(name, row, bit)
    else:
        reg = target.registers()[name]
        value = reg.values[row] if hasattr(reg, "values") else reg.value
        assert adapter.force_at(name, row, bit, 1 - (value >> bit & 1))
    return (name, row, 1 << bit)


@pytest.mark.parametrize(
    "component,entry",
    [(c, e) for c in ("l2c", "mcu", "ccx", "pcie")
     for e in ("flip", "flip_at", "force_at")]
    + [("l2c", "flip_sram"), ("pcie", "flip_sram")],
)
def test_injection_forks_before_mutating(platforms, component, entry):
    """Right after an injection into a lazy adapter the golden copy
    differs from the target in exactly the injected bit."""
    platform = platforms["dma" if component == "pcie" else "plain"]
    cycle, instance, _bit = _points(platform, component, 1)[0]
    adapter, _dma = _warm_up(platform, component, instance, cycle, eager=False)
    assert adapter._golden is None  # warm-up ticked the target alone
    location = _inject(adapter, entry)
    status = adapter.compare()
    adapter.release()
    assert [(m.name, m.entry, m.xor) for m in status.mismatches] == [location]
