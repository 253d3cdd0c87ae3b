"""The crossbar's quiesce wait is read from the golden run, not stepped.

Before the RTL attach an injection machine holds only high-level models
restored from the golden chain, so it replays the golden run.  The
golden run logs every cycle boundary at which the stock crossbar's
drained state flips (``GoldenRun.ccx_drains``), and ``prepare`` attaches
a CCX target at the boundary the stepped wait would reach, cap included.

* The log equals ``Machine.drained("ccx", 0)`` at every boundary of a
  stepped replay, on both geometries, with PCIe on and off.
* CCX runs give the same bytes, and attach at the same cycle, with the
  log as without it (the stepped wait): campaign cells, a forced cap,
  and injection points after the last logged drain.
* The reference engine keeps no log and gives the same bytes.
"""

from __future__ import annotations

import functools
from bisect import bisect_right

import pytest

from repro.api import ExperimentSpec, Session, dumps_canonical
from repro.faults.event import FaultEvent
from repro.faults.models import parse_fault
from repro.injection.campaign import InjectionCampaign
from repro.mixedmode.platform import CosimConfig, MixedModePlatform
from repro.system.machine import MachineConfig

#: the campaign geometry (8 cores x 4 threads) and the oracle's (4 x 2)
CAMPAIGN = (MachineConfig(), 1 / 40_000)
ORACLE = (MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16), 2.5e-5)
SEED = 2015
CCX_FAULTS = (None, "mbu:k=2", "stuck:value=0,hold=400,reg=*fifo_valid")


def _logged_drained(log, cycle: int) -> bool:
    return bisect_right(log, cycle) % 2 == 1


@pytest.mark.parametrize("geometry", [CAMPAIGN, ORACLE], ids=["8x4", "4x2"])
@pytest.mark.parametrize(
    "kernel,pcie",
    [("fft", False), ("p-wc", False), ("p-wc", True), ("barn", False)],
)
def test_log_matches_stepped_replay(geometry, kernel, pcie):
    config, scale = geometry
    platform = MixedModePlatform(
        kernel, machine_config=config, scale=scale, pcie_input=pcie
    )
    golden, machine = platform.golden, platform.machine
    log = golden.ccx_drains
    assert log is not None and len(log) > 2
    assert list(log) == sorted(set(log)) and log[-1] <= golden.cycles
    machine.restore(golden.snapshots[0])
    wrong = []
    while machine.cycle <= golden.cycles:
        if machine.drained("ccx", 0) != _logged_drained(log, machine.cycle):
            wrong.append(machine.cycle)
        machine.step()
    assert wrong == []


def _recording_attach(platform, monkeypatch) -> list:
    """Wrap the two-argument ``_attach_quiesced`` call; the list gets
    each attach's cycle."""
    attach = functools.partial(MixedModePlatform._attach_quiesced, platform)
    attached = []

    def recording(component, instance):
        adapter = attach(component, instance)
        attached.append(platform.machine.cycle)
        return adapter

    monkeypatch.setattr(platform, "_attach_quiesced", recording)
    return attached


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.mark.parametrize("fault", CCX_FAULTS, ids=lambda f: f or "seu")
def test_cells_same_bytes_without_log(session, monkeypatch, fault):
    spec = ExperimentSpec(
        benchmark="p-wc",
        component="ccx",
        machine=CAMPAIGN[0],
        scale=CAMPAIGN[1],
        seed=SEED,
        n=6,
        fault=fault,
    )
    platform = session.platform(spec)
    log = platform.golden.ccx_drains
    sides = []
    for drains in (log, None):
        monkeypatch.setattr(platform.golden, "ccx_drains", drains)
        attached = _recording_attach(platform, monkeypatch)
        result = session.run(spec)
        sides.append((dumps_canonical(result.to_dict()), attached))
    assert sides[0] == sides[1]
    starts = [record.injection_cycle for record in result.records]
    assert any(
        attach != start for attach, start in zip(sides[0][1], starts)
    ), "no run of the cell waited for the crossbar"


@pytest.fixture(scope="module")
def capped():
    """The oracle geometry with a 50-cycle quiesce cap."""
    config, scale = ORACLE
    return MixedModePlatform(
        "p-wc",
        machine_config=config,
        scale=scale,
        cosim_config=CosimConfig(quiesce_limit=50),
    )


def _runs(platform, monkeypatch, drains, go) -> tuple[list, list]:
    monkeypatch.setattr(platform.golden, "ccx_drains", drains)
    attached = _recording_attach(platform, monkeypatch)
    return [run.to_dict() for run in go()], attached


def test_forced_cap_same_bytes_without_log(capped, monkeypatch):
    golden = capped.golden
    log, limit = golden.ccx_drains, capped.cosim.quiesce_limit

    def go():
        campaign = InjectionCampaign(
            capped, "ccx", seed=SEED, fault=parse_fault("mbu:k=2")
        )
        return campaign.run(8)

    with_log = _runs(capped, monkeypatch, log, go)
    assert with_log == _runs(capped, monkeypatch, None, go)
    starts = [run["injection_cycle"] for run in with_log[0]]
    caps = [
        start
        for start, attach in zip(starts, with_log[1])
        if attach == start + limit and not _logged_drained(log, attach)
    ]
    assert caps, "no run of the campaign attached at the cap"


def test_points_past_last_drain_same_bytes(capped, monkeypatch):
    golden = capped.golden
    log, limit = golden.ccx_drains, capped.cosim.quiesce_limit
    # a busy stretch longer than the cap, the boundary before the last
    # logged drain, and points after it (inside the final drained
    # stretch, up to the golden run's end)
    long_busy = next(
        log[i] for i in range(1, len(log) - 1, 2) if log[i + 1] - log[i] > limit
    )
    points = [long_busy, log[-1] - 1, log[-1] + 1, golden.cycles - 1, golden.cycles]
    assert golden.ccx_quiesced(long_busy, limit) == long_busy + limit
    assert golden.ccx_quiesced(log[-1] - 1, limit) == log[-1]
    assert golden.ccx_quiesced(golden.cycles, limit) == golden.cycles
    assert golden.ccx_quiesced(golden.cycles + 1, limit) is None

    def go():
        return [
            capped.run_injection(
                FaultEvent("seu", "ccx", 0, point, params={"bit": bit}), 600
            )
            for bit, point in enumerate(points)
        ]

    with_log = _runs(capped, monkeypatch, log, go)
    assert with_log == _runs(capped, monkeypatch, None, go)
    assert with_log[1] == [
        long_busy + limit,
        log[-1],
        log[-1] + 1,
        golden.cycles - 1,
        golden.cycles,
    ]


def test_reference_engine_same_bytes(session):
    config, scale = ORACLE
    spec = ExperimentSpec(
        benchmark="p-wc",
        component="ccx",
        machine=config,
        scale=scale,
        seed=SEED,
        n=3,
    )
    reference = Session(engine="reference")
    assert reference.platform(spec).golden.ccx_drains is None
    assert session.platform(spec).golden.ccx_drains is not None
    assert dumps_canonical(reference.run(spec).to_dict()) == dumps_canonical(
        session.run(spec).to_dict()
    )
