"""A run is its draws.

Every random choice of a cell's runs is drawn by its campaign object --
``InjectionCampaign.draws()`` yields ``(event, warmup)`` and
``QrrCampaign.draws(seed)`` yields ``(instance, cycle, warmup, bit)`` --
from the platform's fixed state alone, and the run drivers take those
values, never a random stream.

* **Frozen draws.**  The first draws of every cell of
  ``tests/test_result_oracle.py`` are pinned as digests (every fault
  model per component, QRR on L2C and MCU).  They are taken on a fresh
  platform and must not advance its machine by a single cycle.
* **Campaign match.**  Each campaign's runs carry exactly the drawn
  events and warm-ups, in draw order.
* **Coverage.**  The QRR draw reads the parity-covered bits off the
  component's sampling prototype, before any server exists; that list
  equals every instance's.

When a change moves the draws on purpose (and with them the oracle's
bytes), regenerate with::

    PYTHONPATH=src python tests/test_draws.py
"""

from __future__ import annotations

import copy
import hashlib
import json
from itertools import islice

import pytest

from repro.api import ExperimentSpec, Session
from repro.faults.inventory import prototype_module
from repro.injection.campaign import InjectionCampaign
from repro.qrr.campaign import QrrCampaign, _build_server
from repro.qrr.coverage import covered_bits

from test_result_oracle import BENCHMARK, CFG, SCALE, SEED, _cells, _label

#: blake2b-128 of each cell's first ``n`` draws (``_rows``), one per
#: non-golden cell of the result oracle
DRAW_DIGESTS = {
    "injection:l2c:seu:n=4": "0a1e550a5200eacd1a3f1cfca9c58bfa",
    "injection:l2c:mbu:k=2:n=4": "75316244e2ed732d3305fa1e7dbc43e8",
    "injection:l2c:stuck:value=1,hold=400:n=4": "24e4f0385de9ad1803538b77c038c561",
    "injection:l2c:flicker:period=40:n=4": "6b39adb9f659e0f1e90214e7cecafb53",
    "injection:l2c:sram:k=2:n=4": "0fe67a1b72062242a0906939c0f5b869",
    "injection:mcu:seu:n=4": "fe9e0a9ea764ac9cf87acff59aba6d00",
    "injection:mcu:mbu:k=2:n=4": "357c35f22b965031ec9600909e9b4d72",
    "injection:mcu:stuck:value=1,hold=400:n=4": "abd079ec2023619d6dd583f19dfb5752",
    "injection:mcu:flicker:period=40:n=4": "f4c482f65279f0bf958f417f32e4ef8d",
    "injection:ccx:seu:n=4": "95618cab49a0a24ec6a65051f03af23d",
    "injection:ccx:mbu:k=2:n=4": "ded4689e287b8ee29e7131ba26592971",
    "injection:ccx:stuck:value=1,hold=400:n=4": "eb263aed1929b5f36fc96253689b26a6",
    "injection:ccx:flicker:period=40:n=4": "fec52a679de92ce961fdbb2d9d2636e3",
    "injection:pcie:seu:n=4": "9d79abbc9882cb7bbc2e0a670947dbbb",
    "injection:pcie:mbu:k=2:n=4": "a0a8a556e25cd4d98f2ef22a4154cbc3",
    "injection:pcie:stuck:value=1,hold=400:n=4": "599be6da96ebda4f3b79fc6294e777cd",
    "injection:pcie:flicker:period=40:n=4": "e485e25a3049d2f1d6d7f06d5eeef9b7",
    "injection:pcie:sram:k=2:n=4": "696a9be34860be92785176ddfc5d919a",
    "qrr:l2c:seu:n=4": "8a191f82def2389543abbe881dcb6a67",
    "qrr:mcu:seu:n=4": "ec4eb989d703747a89f70c04b343daf5",
    "injection:l2c:flicker:period=40,reg=*_count:n=2": "b82370292315f4953bac19f09108d3c4",
    "injection:mcu:stuck:value=1,hold=400,reg=rq_count:n=2": "8dd45777eaf3399fced9181ae5c1e4ac",
    "injection:ccx:stuck:value=0,hold=400,reg=*fifo_valid:n=2": "461f42657baa79e5ef840363c2eea08c",
    "injection:pcie:mbu:k=3,reg=dma_*:n=2": "147e848c9d770857a0895f0c1ecfd104",
}

CELLS = [cell for cell in _cells() if cell[0] != "golden"]


def _spec(mode, component, fault, n) -> ExperimentSpec:
    return ExperimentSpec(
        benchmark=BENCHMARK,
        component=component,
        mode=mode,
        machine=CFG,
        scale=SCALE,
        seed=SEED,
        n=n,
        fault=fault,
    )


def _campaign(platform, spec: ExperimentSpec):
    if spec.mode == "qrr":
        return QrrCampaign(platform, spec.component)
    return InjectionCampaign(
        platform, spec.component, seed=spec.seed, fault=spec.fault_model()
    )


def _draws(platform, spec: ExperimentSpec) -> list:
    """A spec's first ``n`` draws, as the campaign's run takes them."""
    campaign = _campaign(platform, spec)
    if spec.mode == "qrr":
        return list(islice(campaign.draws(spec.seed), spec.n))
    return list(islice(campaign.draws(), spec.n))


def _rows(spec: ExperimentSpec, draws: list) -> list:
    if spec.mode == "qrr":
        return [list(draw) for draw in draws]
    return [[event.to_dict(), warmup] for event, warmup in draws]


def _digest(rows: list) -> str:
    blob = json.dumps(rows, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.blake2b(blob, digest_size=16).hexdigest()


def test_cells_are_the_oracle_cells():
    assert sorted(DRAW_DIGESTS) == sorted(_label(*cell) for cell in CELLS)


@pytest.fixture(scope="module")
def fresh():
    """Platforms nothing has run an injection on."""
    return Session()


@pytest.mark.parametrize("cell", CELLS, ids=lambda cell: _label(*cell))
def test_draws_match_frozen_digest(fresh, cell):
    spec = _spec(*cell)
    platform = fresh.platform(spec)
    machine = platform.machine
    advanced, cycle = machine.cycles_advanced, machine.cycle
    rows = _rows(spec, _draws(platform, spec))
    assert (machine.cycles_advanced, machine.cycle) == (advanced, cycle)
    assert _digest(rows) == DRAW_DIGESTS[_label(*cell)]


@pytest.fixture(scope="module")
def session():
    return Session()


@pytest.mark.parametrize(
    "cell",
    [cell for cell in CELLS if cell[0] == "injection" and cell[3] == 4],
    ids=lambda cell: _label(*cell),
)
def test_injection_runs_carry_their_draws(session, cell):
    spec = _spec(*cell)
    platform = session.platform(spec)
    want = [
        (copy.deepcopy(event), warmup) for event, warmup in _draws(platform, spec)
    ]
    runs = session.campaign(spec)
    assert len(runs) == len(want)
    for run, (event, warmup) in zip(runs, want):
        assert (run.instance, run.injection_cycle, run.warmup) == (
            event.instance, event.cycle, warmup,
        )
        got = run.fault_event.to_dict()
        if not event.locations:
            # the single-bit flip resolves its location when applied
            assert got["locations"] == [list(run.flip_location)]
            got["locations"] = []
        assert got == event.to_dict()


@pytest.mark.parametrize("component", ["l2c", "mcu"])
def test_qrr_runs_carry_their_draws(session, monkeypatch, component):
    spec = _spec("qrr", component, None, 4)
    platform = session.platform(spec)
    want = _draws(platform, spec)
    taken = []
    one_run = QrrCampaign._one_run

    def recording(campaign, instance, cycle, warmup, bit):
        taken.append((instance, cycle, warmup, bit))
        return one_run(campaign, instance, cycle, warmup, bit)

    monkeypatch.setattr(QrrCampaign, "_one_run", recording)
    records = session.run(spec).records
    assert taken == want
    assert [(r.instance, r.injection_cycle) for r in records] == [
        draw[:2] for draw in want
    ]


@pytest.mark.parametrize("component", ["l2c", "mcu"])
def test_prototype_covered_bits_equal_every_instance(session, component):
    platform = session.platform(_spec("qrr", component, None, 1))
    covered = covered_bits(prototype_module(platform, component))
    assert covered
    for instance in range(CFG.instances(component)):
        server = _build_server(platform.machine, component, instance)
        assert covered_bits(server.rtl) == covered


if __name__ == "__main__":
    shared = Session()
    print("DRAW_DIGESTS = {")
    for cell in CELLS:
        spec = _spec(*cell)
        rows = _rows(spec, _draws(shared.platform(spec), spec))
        print(f'    "{_label(*cell)}": "{_digest(rows)}",')
    print("}")
