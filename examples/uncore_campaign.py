#!/usr/bin/env python3
"""Reproduce a slice of Fig. 3: outcome rates for uncore soft errors.

Expands a component x benchmark grid through the unified experiment API
and runs it on a pluggable executor -- pass ``--workers 4`` to fan the
independent campaign cells out over a process pool.  Prints the
five-category outcome table per component, including 95% confidence
intervals for the headline erroneous-outcome rate.

At paper scale this would be >40,000 injections per cell (footnote 2);
adjust ``--n`` upward for tighter intervals.
"""

import argparse

from repro.api import Grid, make_executor
from repro.system.machine import MachineConfig
from repro.system.outcome import OUTCOME_ORDER
from repro.utils.render import render_table
from repro.utils.stats import required_samples


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--n", type=int, default=60, help="injections per cell")
    parser.add_argument(
        "--benchmarks", nargs="+", default=["fft", "radi", "flui"],
    )
    parser.add_argument(
        "--components", nargs="+", default=["l2c", "mcu", "ccx"],
    )
    parser.add_argument("--workers", type=int, default=1,
                        help="process-pool size; 1 runs serially")
    args = parser.parse_args()

    print(
        "campaign sizing note: observing a 1% rate to +-0.1% at 95% "
        f"confidence needs {required_samples(0.01, 0.001):,} samples "
        "(paper footnote 2); this demo uses "
        f"{args.n} per cell.\n"
    )
    grid = Grid(
        components=tuple(args.components),
        benchmarks=tuple(args.benchmarks),
        n=args.n,
        machine=MachineConfig(
            cores=4, threads_per_core=2, l2_banks=8, l2_sets=16
        ),
        scale=1 / 100_000,
    )
    results = make_executor(workers=args.workers).run(grid.specs())

    for component in args.components:
        cells = [r for r in results if r.spec.component == component]
        if not cells:
            print(f"{component.upper()}: no valid campaign cells "
                  f"(PCIe needs benchmarks with an input file)\n")
            continue
        headers = (
            ["benchmark"]
            + [o.value for o in OUTCOME_ORDER]
            + ["erroneous (95% CI)"]
        )
        rows = [cell.row() + [str(cell.erroneous)] for cell in cells]
        print(render_table(headers, rows, title=f"Fig. 3 panel: {component.upper()}"))
        mean = sum(c.erroneous.rate for c in cells) / len(cells)
        print(f"mean erroneous rate: {mean:.2%}\n")


if __name__ == "__main__":
    main()
