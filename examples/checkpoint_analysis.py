#!/usr/bin/env python3
"""Checkpoint-recovery challenge analysis (paper Sec. 5, Figs. 8 and 9).

Runs L2C and MCU injection campaigns, collects error-propagation
latencies and required rollback distances, and prints the two CDFs that
show why core-oriented checkpoint recovery struggles with uncore errors:
propagation to the cores can take a large fraction of the run, and
recovering corrupted memory can require rolling back almost to the
beginning.
"""

import argparse

from repro.injection.campaign import InjectionCampaign
from repro.mixedmode.platform import MixedModePlatform
from repro.recovery.checkpoint import IncrementalCheckpointModel
from repro.recovery.propagation import PropagationAnalysis
from repro.recovery.rollback import RollbackAnalysis
from repro.system.machine import MachineConfig
from repro.utils.render import render_series


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=150, help="injections per component")
    parser.add_argument("--benchmark", default="flui")
    args = parser.parse_args()

    config = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16)
    platform = MixedModePlatform(
        args.benchmark, machine_config=config, scale=1 / 60_000
    )
    print(f"golden run: {platform.golden.cycles} cycles\n")

    campaigns = {}
    for component in ("l2c", "mcu"):
        campaign = InjectionCampaign(platform, component, seed=3)
        campaigns[component] = campaign.run(args.n)

    for component, runs in campaigns.items():
        prop = PropagationAnalysis.from_runs(component, runs)
        if prop.samples:
            print(render_series(
                f"Fig. 8 -- {component.upper()} propagation latency CDF "
                f"({len(prop.samples)} samples, mean {prop.mean:,.0f} cycles)",
                prop.decade_series(max_exponent=6),
            ))
        roll = RollbackAnalysis.from_runs(component, runs)
        if roll.samples:
            print(render_series(
                f"Fig. 9 -- {component.upper()} required rollback distance CDF "
                f"({len(roll.samples)} samples)",
                roll.decade_series(max_exponent=6),
            ))
        print()

    # incremental checkpoint log sizes for context (Sec. 5.2)
    model = IncrementalCheckpointModel(interval=1000)
    for addr, cycle in platform.machine.last_store_cycle.items():
        model.record_store(addr, cycle)
    stats = model.stats()
    print(f"incremental checkpoints every {stats.interval} cycles: "
          f"{stats.checkpoints} checkpoints, "
          f"mean log {stats.mean_words_per_checkpoint:.0f} words, "
          f"max {stats.max_words_per_checkpoint}")


if __name__ == "__main__":
    main()
