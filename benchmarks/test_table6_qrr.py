"""Benches for QRR: Table 6 overheads and Sec. 6.4 effectiveness."""

import pytest

from repro.mixedmode.platform import MixedModePlatform
from repro.physical import compute_table6
from repro.qrr.campaign import QrrCampaign
from repro.qrr.coverage import classify_coverage, improvement_factor
from repro.soc.address import AddressMap
from repro.uncore.l2c import L2cRtl
from repro.utils.render import render_table

from conftest import BENCH_CONFIG, BENCH_N


def test_table6_qrr_overhead(benchmark):
    t6 = benchmark.pedantic(compute_table6, rounds=1, iterations=1)
    q = t6.qrr
    rows = [
        ("Parity", f"{q.parity_area:.1%}", f"{q.parity_power:.1%}"),
        ("Hardening (selective)", f"{q.hardening_area:.1%}", f"{q.hardening_power:.1%}"),
        ("QRR controller + table", f"{q.controller_area:.1%}", f"{q.controller_power:.1%}"),
        ("QRR total (component)", f"{q.total_area:.1%}", f"{q.total_power:.1%}"),
        ("QRR total (chip)", f"{t6.qrr_chip_area:.2%}", f"{t6.qrr_chip_power:.2%}"),
        ("Hardening-only (component)", f"{t6.hardening_only_area:.1%}",
         f"{t6.hardening_only_power:.1%}"),
        ("Hardening-only (chip)", f"{t6.hardening_only_chip_area:.2%}",
         f"{t6.hardening_only_chip_power:.2%}"),
    ]
    print("\n" + render_table(
        ["Overhead", "Area", "Power"], rows, title="Table 6 (reproduced)"
    ))
    assert t6.qrr.total_area == pytest.approx(0.459, abs=0.005)
    assert t6.qrr_chip_area == pytest.approx(0.0332, abs=0.0005)
    assert t6.qrr_chip_power == pytest.approx(0.0609, abs=0.0005)
    assert t6.area_saving_vs_hardening == pytest.approx(0.23, abs=0.02)
    assert t6.power_saving_vs_hardening == pytest.approx(0.31, abs=0.02)


@pytest.mark.parametrize("component", ["l2c", "mcu"])
def test_qrr_effectiveness(benchmark, component):
    """Sec. 6.4: QRR recovers every parity-covered injection."""
    platform = MixedModePlatform(
        "flui", machine_config=BENCH_CONFIG, scale=1 / 100_000
    )
    campaign = QrrCampaign(platform, component)
    n = max(15, BENCH_N // 3)
    records = benchmark.pedantic(
        campaign.run, args=(n,), kwargs={"seed": 11}, rounds=1, iterations=1
    )
    injections = len(records)
    detected = sum(1 for r in records if r.detected)
    recovered = sum(1 for r in records if r.recovered)
    failures = [(r.instance, r.injection_cycle) for r in records if not r.recovered]
    max_recovery_cycles = max(
        (c for r in records for c in r.recovery_cycles), default=0
    )
    print(f"\nQRR {component.upper()}: {recovered}/{injections} "
          f"recovered, {detected} detected, "
          f"max recovery {max_recovery_cycles} cycles "
          f"(paper: all recovered, < 5,000 cycles)")
    assert detected == injections
    assert recovered == injections, failures
    assert max_recovery_cycles < 5_000


def test_qrr_improvement_factor(benchmark):
    def build():
        coverage = classify_coverage(
            L2cRtl(0, AddressMap(l2_sets=16), 8, send_mcu=lambda r: None), "l2c"
        )
        return coverage, improvement_factor(coverage)

    coverage, factor = benchmark.pedantic(build, rounds=1, iterations=1)
    print(f"\nQRR improvement factor (footnote 15 arithmetic): {factor:,.0f}x "
          f"(paper: >100x; hardened fraction "
          f"{coverage.hardened_total / (coverage.target_ffs + coverage.qrr_controller):.1%})")
    assert factor > 100
