"""Each uncore component is declared once.

* ``Machine.drained`` -- the test quiesce waits on -- equals the
  per-component predicate the platform used to carry, at every cycle of
  a run, with high-level models and with RTL stand-ins in the slots.
* ``Machine.swap`` is the one writer of the component slots: attach
  then detach, and attach then release, leave every slot holding the
  object it held before, on both engines.
* The RTL modules pad their inventories to ``T2_GEOMETRY`` through one
  helper; register names, sizes, classes and declaration order (which
  snapshots, compares and ``flip_target_bit`` walk) are frozen.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.faults.inventory import build_module
from repro.mixedmode.adapters import make_adapter
from repro.qrr.servers import QrrL2cServer, QrrMcuServer
from repro.soc.geometry import T2_GEOMETRY, UNCORE_TARGETS
from repro.system.machine import ENGINES, Machine, MachineConfig
from repro.workloads import build_workload

CFG = MachineConfig(cores=2, threads_per_core=2, l2_banks=8, l2_sets=8, l2_ways=4)

#: sha256 (first 16 hex digits) of each module's ordered
#: ``[name, entries, width, ff_class, functional]`` register rows
INVENTORY_DIGESTS = {
    "l2c": "84c2238421fdb22d",
    "mcu": "a5a982a9e36d0c0c",
    "ccx": "49bc22d25ffa6eec",
    "pcie": "e131d8ea7c0b3895",
}


def _loaded(engine: str) -> Machine:
    machine = Machine(CFG, engine=engine)
    machine.load_workload(
        build_workload("fft", threads=CFG.total_threads, scale=2e-5, seed=7)
    )
    return machine


def _component_idle(machine: Machine, component: str, instance: int) -> bool:
    """The drain test quiesce used before ``Machine.drained`` existed."""
    if component == "l2c":
        mcu_idx = machine.amap.mcu_of_bank(instance)
        return (
            machine.l2banks[instance].in_flight() == 0
            and not machine._bank_ingress[instance]
            and machine.mcus[mcu_idx].in_flight() == 0
            and not machine._mcu_ingress[mcu_idx]
        )
    if component == "mcu":
        return (
            machine.mcus[instance].in_flight() == 0
            and not machine._mcu_ingress[instance]
        )
    if component == "ccx":
        return machine.ccx.in_flight() == 0
    return True


def _slots(machine: Machine) -> list:
    return [*machine.l2banks, *machine.mcus, machine.ccx, machine.pcie]


def _points(config: MachineConfig):
    return [
        (c, i) for c in UNCORE_TARGETS for i in range(config.instances(c))
    ]


@pytest.mark.parametrize("engine", ENGINES)
def test_drained_equals_component_idle(engine):
    machine = _loaded(engine)
    points = _points(CFG)
    seen = set()

    def check(cycles: int) -> None:
        for _ in range(cycles):
            for component, instance in points:
                want = _component_idle(machine, component, instance)
                assert machine.drained(component, instance) is want, (
                    machine.cycle, component, instance
                )
                seen.add((component, want))
            machine.step()

    check(600)
    # RTL stand-ins answer in_flight() through the same slots
    for component, instance in (("ccx", 0), ("l2c", 1), ("mcu", 2)):
        make_adapter(machine, component, instance).attach()
    check(600)
    # both answers occurred for every queued component
    assert {("l2c", False), ("mcu", False), ("ccx", False)} <= seen
    assert {("l2c", True), ("mcu", True), ("ccx", True)} <= seen


def _round_trips():
    """(stand-in, component, instance, leaving method) combinations."""
    for component in UNCORE_TARGETS:
        for instance in sorted({0, CFG.instances(component) - 1}):
            for leave in ("detach", "release"):
                yield "adapter", component, instance, leave
    # QRR servers leave through detach only
    yield "qrr", "l2c", 3, "detach"
    yield "qrr", "mcu", 1, "detach"


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("kind,component,instance,leave", list(_round_trips()))
def test_swap_round_trip_restores_every_slot(engine, kind, component, instance, leave):
    machine = _loaded(engine)
    machine.run_until_cycle(300)
    before = _slots(machine)
    if kind == "qrr":
        server_cls = QrrL2cServer if component == "l2c" else QrrMcuServer
        server = server_cls(machine, instance)
    else:
        server = make_adapter(machine, component, instance)
    server.attach()
    during = _slots(machine)
    assert [s for s in during if s is server] == [server]
    assert server.hl is before[during.index(server)]
    machine.step()
    getattr(server, leave)()
    assert all(a is b for a, b in zip(_slots(machine), before, strict=True))


@pytest.mark.parametrize("component", UNCORE_TARGETS)
def test_inventory_frozen(component):
    module = build_module(component)
    rows = [
        [name, getattr(reg, "entries", 1), reg.width, reg.ff_class.value,
         reg.functional]
        for name, reg in module.registers().items()
    ]
    blob = json.dumps(rows, separators=(",", ":")).encode()
    assert hashlib.sha256(blob).hexdigest()[:16] == INVENTORY_DIGESTS[component]
    spec = T2_GEOMETRY[component]
    assert module.spec is spec
    assert module.flip_flop_count() == spec.flip_flops
    assert module.target_flip_flop_count() == spec.target_ffs


def test_swap_rejects_unknown_component():
    machine = Machine(CFG)
    with pytest.raises(ValueError, match="unknown uncore component"):
        machine.swap("niu", 0, object())
