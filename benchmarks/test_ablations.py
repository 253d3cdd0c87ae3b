"""Ablation benches for the platform's design choices (DESIGN.md Sec. 5).

1. Golden-copy early stop: disabling the Vanished early exit inflates
   co-simulated cycles dramatically (it is what makes >97% of runs cheap).
2. Snapshot interval Cf: phase-1 fast-forward length trades against
   snapshot count.
3. Co-simulation cycle cap: lowering it converts slow-converging runs
   into Persistent ones (the Fig. 6 trade-off).
"""

import random

from repro.faults.models import SingleBitFlip
from repro.injection.campaign import InjectionCampaign
from repro.mixedmode.platform import CosimConfig, MixedModePlatform
from repro.utils.render import render_table

from conftest import BENCH_CONFIG, BENCH_N


def _run_seu(platform, event, **kwargs):
    """An inline SEU run whose warm-up is drawn from a stream seeded by
    the flipped bit."""
    warmup = platform.draw_warmup(random.Random(event.params["bit"] * 1_000_003))
    return platform.run_injection(event, warmup, **kwargs)


def test_ablation_early_stop(benchmark):
    """Compare co-simulated cycles with and without the early exit."""
    platform = MixedModePlatform(
        "fft", machine_config=BENCH_CONFIG, scale=1 / 150_000
    )
    n = max(15, BENCH_N // 3)

    def run_pair():
        rng = random.Random(4)
        events = [SingleBitFlip().sample(platform, "l2c", rng) for _ in range(n)]
        with_stop = 0
        for event in events:
            run = _run_seu(platform, event)
            with_stop += run.cosim.cosim_cycles
        without_stop = 0
        for event in events:
            # forcing a tiny cap emulates "no early exit" cost accounting:
            # runs that would vanish in ~1 interval instead co-simulate
            # up to the cap
            run = _run_seu(platform, event, cosim_cycle_cap=4_000)
            without_stop += (
                run.cosim.cosim_cycles if not run.cosim.vanished else 4_000
            )
        return with_stop, without_stop

    with_stop, without_stop = benchmark.pedantic(run_pair, rounds=1, iterations=1)
    print(f"\nearly-stop ablation: {with_stop:,} co-sim cycles with early "
          f"exit vs {without_stop:,} without ({without_stop / max(1, with_stop):.1f}x)")
    assert without_stop > with_stop


def test_ablation_snapshot_interval(benchmark):
    """Sweep Cf: larger intervals mean longer phase-1 fast-forwards."""

    def sweep():
        rows = []
        for cf in (250, 1_000, 5_000, 20_000):
            platform = MixedModePlatform(
                "fft",
                machine_config=BENCH_CONFIG,
                cosim_config=CosimConfig(snapshot_interval=cf),
                scale=1 / 150_000,
            )
            snapshots = len(platform.golden.snapshots)
            # mean fast-forward distance for uniform injection cycles
            mean_ff = cf / 2 if platform.golden.cycles > cf else (
                platform.golden.cycles / 2
            )
            rows.append((cf, snapshots, int(mean_ff)))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n" + render_table(
        ["Cf (cycles)", "snapshots stored", "mean fast-forward (cycles)"],
        rows,
        title="Ablation: snapshot interval (paper: Cf = 2M cycles)",
    ))
    assert rows[0][1] >= rows[-1][1]


def test_ablation_cosim_cap(benchmark):
    """Sweep the co-simulation cap (the paper's Sec. 4.2 trade-off)."""
    platform = MixedModePlatform(
        "flui", machine_config=BENCH_CONFIG, scale=1 / 120_000
    )
    n = max(20, BENCH_N // 2)

    def sweep():
        rows = []
        for cap in (500, 2_000, 8_000):
            rng = random.Random(9)
            persistent = 0
            for _ in range(n):
                event = SingleBitFlip().sample(platform, "l2c", rng)
                run = _run_seu(platform, event, cosim_cycle_cap=cap)
                persistent += run.persistent
            rows.append((cap, persistent, f"{persistent / n:.1%}"))
        return rows

    rows = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print("\n" + render_table(
        ["co-sim cap (cycles)", "persistent runs", "fraction"],
        rows,
        title=f"Ablation: co-simulation cycle cap, n={n}/point "
              "(paper: 1.8% of runs persist past 100K)",
    ))
    fractions = [r[1] for r in rows]
    assert fractions[0] >= fractions[-1]
