"""Absolute result oracle: frozen digests of canonical result bytes.

Every other identity test is relative -- engine vs. engine, backend vs.
serial -- and all of them share the RTL component models, so a rewrite
of a model could drift without any of them noticing.  This file pins
the bytes themselves: a small frozen grid of cells on ``p-wc`` (which
has an input file, so PCIe is injectable) on a small machine, each
hashed as ``blake2b(dumps_canonical(result.to_dict()))``.

The grid is every injectable component under each fault model (SRAM
bursts only where the component has SRAM), QRR on the two protected
components, the golden run, and a few register-targeted live faults
that drive the RTL through hangs, output mismatches, protocol errors
and capped co-simulation windows -- the default single-bit campaign
mostly vanishes at the first compare.

When a change moves results on purpose, regenerate with::

    PYTHONPATH=src python tests/test_result_oracle.py

and explain the new bytes in the change description.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.api import ExperimentSpec, Session, dumps_canonical
from repro.system.machine import MachineConfig

CFG = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16)
BENCHMARK = "p-wc"
SCALE = 2.5e-5
SEED = 2015
N = 4
N_LIVE = 2

FAULTS = (None, "mbu:k=2", "stuck:value=1,hold=400", "flicker:period=40", "sram:k=2")
SRAM_COMPONENTS = ("l2c", "pcie")
#: register-targeted faults that keep the RTL busy (component, fault)
LIVE_CELLS = (
    ("l2c", "flicker:period=40,reg=*_count"),
    ("mcu", "stuck:value=1,hold=400,reg=rq_count"),
    ("ccx", "stuck:value=0,hold=400,reg=*fifo_valid"),
    ("pcie", "mbu:k=3,reg=dma_*"),
)


def _cells() -> list[tuple[str, "str | None", "str | None", int]]:
    cells = []
    for component in ("l2c", "mcu", "ccx", "pcie"):
        for fault in FAULTS:
            if fault == "sram:k=2" and component not in SRAM_COMPONENTS:
                continue
            cells.append(("injection", component, fault, N))
    cells += [("qrr", "l2c", None, N), ("qrr", "mcu", None, N)]
    cells.append(("golden", None, None, 1))
    cells += [("injection", c, f, N_LIVE) for c, f in LIVE_CELLS]
    return cells


def _label(mode, component, fault, n) -> str:
    return f"{mode}:{component}:{fault or 'seu'}:n={n}"


def _digest(session: Session, mode, component, fault, n) -> str:
    spec = ExperimentSpec(
        benchmark=BENCHMARK,
        component=component,
        mode=mode,
        machine=CFG,
        scale=SCALE,
        seed=SEED,
        n=n,
        fault=fault,
    )
    text = dumps_canonical(session.run(spec).to_dict())
    return hashlib.blake2b(text.encode("utf-8"), digest_size=32).hexdigest()


#: frozen canonical-byte digests, one per cell of :func:`_cells`
DIGESTS = {
    "injection:l2c:seu:n=4":
        "f1dd2d1ff201a174d498368b5a86b7875ec78066a8ccf9df1fbc2896d3197835",
    "injection:l2c:mbu:k=2:n=4":
        "1882b185ae067df21b71765a39b5fdc0d40b543f309e263c15ed85f08a5e24df",
    "injection:l2c:stuck:value=1,hold=400:n=4":
        "c035f651a1b05f1b7a546ac0956fe04781526bfece1c4dfc8cb220745c7ae2d7",
    "injection:l2c:flicker:period=40:n=4":
        "285ed67cf4501f2190782833029fb50bbc1173b7e14cc7fe0f26a7a6cc7175d1",
    "injection:l2c:sram:k=2:n=4":
        "d0bb8033e1f6f19830678e3235f350fe19644c27fa25cee82f2b39c8afcfb41a",
    "injection:mcu:seu:n=4":
        "633a29743f8794b859e165ee6879bf3e8ce29185994e16773703bbed85b0aaef",
    "injection:mcu:mbu:k=2:n=4":
        "114ef080844133d706fac26c83b9a90c0714b5ad244e12c5054e2cb49399ebb3",
    "injection:mcu:stuck:value=1,hold=400:n=4":
        "dd50cf4cd452a792979c378e57d920a15f618490cf78ecdcc926e994d2bc5758",
    "injection:mcu:flicker:period=40:n=4":
        "4c105e1aede863e7365bed6260d9dca43b31b4d92f3cd6e4133075a82e957eaf",
    "injection:ccx:seu:n=4":
        "82940d6a4f44e5c394d32fe8936daab97bda6cffe2b90895328eeba3cb595668",
    "injection:ccx:mbu:k=2:n=4":
        "0033ea947a565ffb7721f31c5b2e7dfdf9bf2afb6f69b87de9feb3fad67328a0",
    "injection:ccx:stuck:value=1,hold=400:n=4":
        "45d05aa18bfa68958abf1daa8cbe13ac48c565a09d8f5a626a4b0fefdd13f798",
    "injection:ccx:flicker:period=40:n=4":
        "297ef371d53633537f22fb2666b16088670df2c4e4ef77d1a235bf7cd9d3fa67",
    "injection:pcie:seu:n=4":
        "8c705fd56cac49b8bd4b66bfd1e69bba715f23fe51a1db4c1fd0c700875c6f17",
    "injection:pcie:mbu:k=2:n=4":
        "fdb915d6e1175bb3603c347e4c76cbd09b9302bf6b73e4865ac51c71272cf6bb",
    "injection:pcie:stuck:value=1,hold=400:n=4":
        "73fe006ba862defbd9702bc130f65fde16edf7572a3ee45958582ab7be86ba48",
    "injection:pcie:flicker:period=40:n=4":
        "63bfc28593e44ff2d62abf773e19dba81762c80b5c863829e1e34152e3282ab9",
    "injection:pcie:sram:k=2:n=4":
        "8f678a61e0b52e04f48f93942de3e62205f24f2bc68c5a61fce66eb7c6571428",
    "qrr:l2c:seu:n=4":
        "77a7240899b1eed6c7e3bcde5b9845c2d3ad80e85fb8100258c96fcc2e158d51",
    "qrr:mcu:seu:n=4":
        "3b420f6cbfa86458f920bea8b853a67ff86fdb3369d306c5b5b54a9787894ecc",
    "golden:None:seu:n=1":
        "e0551df3bff4b71359561bae1ace9d1c23c8d28a0816ea8687aee6352b395990",
    "injection:l2c:flicker:period=40,reg=*_count:n=2":
        "f23fbf60af410504d0e807cba2de525c79e6d420c4818831fa6c5f7fae2464a1",
    "injection:mcu:stuck:value=1,hold=400,reg=rq_count:n=2":
        "f28faa35b0f8110860d613e7876ee03a7bb9f9c520846bd6ddf78d33bb7543d4",
    "injection:ccx:stuck:value=0,hold=400,reg=*fifo_valid:n=2":
        "5b61cedebf20c2da27112915a024d30efb2a5b9d71490febfcfc2be77d117137",
    "injection:pcie:mbu:k=3,reg=dma_*:n=2":
        "5179488097dff8c22adf45d512218296e7ae551130d52112f30c9346bc9311a9",
}


@pytest.fixture(scope="module")
def session():
    return Session()


def test_grid_is_frozen():
    assert sorted(DIGESTS) == sorted(_label(*cell) for cell in _cells())


@pytest.mark.parametrize("cell", _cells(), ids=lambda cell: _label(*cell))
def test_canonical_bytes_match_frozen_digest(session, cell):
    assert _digest(session, *cell) == DIGESTS[_label(*cell)]


if __name__ == "__main__":
    shared = Session()
    print("DIGESTS = {")
    for cell in _cells():
        print(f'    "{_label(*cell)}":\n        "{_digest(shared, *cell)}",')
    print("}")
