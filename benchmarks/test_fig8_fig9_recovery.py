"""Benches for the checkpoint-recovery figures (Fig. 8, Fig. 9)."""

from repro.injection.campaign import InjectionCampaign
from repro.mixedmode.platform import MixedModePlatform
from repro.recovery.propagation import PropagationAnalysis
from repro.recovery.rollback import RollbackAnalysis
from repro.utils.render import render_series

from conftest import BENCH_CONFIG, BENCH_N

_CAMPAIGNS = {}


def _campaigns():
    """Shared L2C+MCU campaigns over a store-heavy workload."""
    if not _CAMPAIGNS:
        platform = MixedModePlatform(
            "flui", machine_config=BENCH_CONFIG, scale=1 / 25_000
        )
        for component in ("l2c", "mcu"):
            campaign = InjectionCampaign(platform, component, seed=8)
            _CAMPAIGNS[component] = campaign.run(max(BENCH_N * 3, 180))
    return _CAMPAIGNS


def test_fig8_propagation_latency(benchmark):
    campaigns = benchmark.pedantic(_campaigns, rounds=1, iterations=1)
    printed = False
    for component in ("l2c", "mcu"):
        analysis = PropagationAnalysis.from_runs(component, campaigns[component])
        if not analysis.samples:
            continue
        printed = True
        print("\n" + render_series(
            f"Fig. 8 (reproduced, {component.upper()}): propagation-latency "
            f"CDF ({len(analysis.samples)} propagating errors, "
            f"mean {analysis.mean:,.0f} cycles)",
            analysis.decade_series(max_exponent=5),
        ))
        # the paper's point: propagation can take a large fraction of
        # the run -- the CDF must not be concentrated at tiny latencies
        # (meaningful only once the sample is non-degenerate)
        if len(analysis.samples) >= 5:
            assert analysis.cdf().fraction_at_most(10) < 1.0
    if not printed:
        print("\nFig. 8: no propagating errors in this sample "
              "(rate ~1-2%); increase REPRO_BENCH_N for the CDF")


def test_fig9_rollback_distance(benchmark):
    campaigns = benchmark.pedantic(_campaigns, rounds=1, iterations=1)
    printed = False
    for component in ("l2c", "mcu"):
        analysis = RollbackAnalysis.from_runs(component, campaigns[component])
        if not analysis.samples:
            continue
        printed = True
        print("\n" + render_series(
            f"Fig. 9 (reproduced, {component.upper()}): required rollback "
            f"distance CDF ({len(analysis.samples)} memory-corrupting errors)",
            analysis.decade_series(max_exponent=5),
        ))
        # the paper's point: covering ~99% of corruptions needs rollback
        # over a large fraction of the run length
        if len(analysis.samples) >= 5:
            assert max(analysis.samples) > 100
    if not printed:
        print("\nFig. 9: no memory corruptions in this sample "
              "(rate <1%); increase REPRO_BENCH_N for the CDF")
