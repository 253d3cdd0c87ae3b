#!/usr/bin/env python3
"""Quickstart: boot the SoC model, run a benchmark, inject one error.

Demonstrates the layers of the library in ~50 lines:

1. the full-system machine running a multi-threaded workload,
2. the mixed-mode platform (accelerated + RTL co-simulation),
3. a single flip-flop soft-error injection into the L2 cache controller,
4. the unified experiment API: spec in, canonical campaign result out.
"""

import random

from repro.api import ExperimentSpec, Session
from repro.faults.models import SingleBitFlip
from repro.mixedmode.platform import MixedModePlatform
from repro.system.machine import Machine, MachineConfig
from repro.workloads import build_workload


def main() -> None:
    config = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16)

    # --- 1. run a workload error-free ---------------------------------
    image = build_workload("fft", threads=config.total_threads, scale=1 / 150_000)
    machine = Machine(config)
    machine.load_workload(image)
    result = machine.run()
    print(f"error-free run: {result.cycles} cycles, "
          f"{result.retired} instructions, {len(result.output)} output words")

    # --- 2. bring up the mixed-mode platform --------------------------
    platform = MixedModePlatform("fft", machine_config=config, scale=1 / 150_000)
    print(f"golden run cached: {platform.golden.cycles} cycles, "
          f"{len(platform.golden.snapshots)} snapshots")

    # --- 3. inject one soft error into the L2 cache controller --------
    rng = random.Random(42)
    event = SingleBitFlip().sample(platform, "l2c", rng)
    run = platform.run_injection(event, platform.draw_warmup(rng))
    reg, entry, bitpos = run.flip_location
    print(f"injected bit flip: L2C bank {event.instance}, register {reg!r} "
          f"entry {entry} bit {bitpos}, at cycle {event.cycle}")
    print(f"outcome: {run.outcome.value if run.outcome else 'persistent'} "
          f"(co-simulated {run.cosim.cosim_cycles} cycles, "
          f"ended by {run.cosim.ended_by!r})")

    # --- 4. the same thing through the unified experiment API ---------
    spec = ExperimentSpec(
        benchmark="fft", component="l2c", machine=config,
        scale=1 / 150_000, n=10,
    )
    result = Session().run(spec)
    print(f"campaign cell {spec.label()}: {result.outcome_counts()} "
          f"(persistent: {result.persistent})")
    path = result.save("quickstart_result.json")
    print(f"canonical result saved to {path}")


if __name__ == "__main__":
    main()
