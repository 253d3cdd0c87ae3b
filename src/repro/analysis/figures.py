"""Drivers for the paper's figures (3, 4, 8, 9 plus helpers).

These run real injection campaigns through the mixed-mode platform.
Every cell is the canonical :class:`~repro.api.result.ExperimentResult`
of ``Session.run``, so a figure built from results loaded from a
``repro sweep --json`` document equals the one built in-process.
Sample counts default far below the paper's 40,000/cell so the benches
complete on a laptop; pass larger ``n_injections`` to tighten the
confidence intervals (the statistics module sizes campaigns the same way
the paper's footnote 2 does).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.result import ExperimentResult
from repro.api.session import Session
from repro.api.spec import ExperimentSpec
from repro.soc.geometry import UNCORE_TARGETS
from repro.system.machine import MachineConfig
from repro.system.outcome import OUTCOME_ORDER, Outcome

#: Published processor-core OMM rates shown in Fig. 4 for comparison
#: (per injected flip-flop soft error, single instance).  Values are the
#: bar heights of the paper's Fig. 4: LEON3 and IVM Alpha from [Cho 13],
#: IBM POWER6 from [Sanda 08], OpenRISC from [Meixner 07].
CORE_OMM_RATES: dict[str, float] = {
    "LEON": 0.016,
    "IVM": 0.007,
    "Power": 0.004,
    "OR": 0.029,
}


@dataclass
class Fig3Cell:
    """One (component, benchmark) bar of Fig. 3."""

    component: str
    benchmark: str
    result: ExperimentResult

    def rates(self) -> dict[str, float]:
        return {o.value: self.result.rate(o).rate for o in OUTCOME_ORDER}


@dataclass
class Fig3Result:
    """All cells for one component (one panel of Fig. 3)."""

    component: str
    cells: list[Fig3Cell] = field(default_factory=list)

    def mean_rate(self, outcome: Outcome) -> float:
        """Arithmetic mean across benchmarks (the paper's 'avg.' bar)."""
        if not self.cells:
            raise ValueError("no campaign cells")
        return sum(c.result.rate(outcome).rate for c in self.cells) / len(
            self.cells
        )

    def mean_erroneous(self) -> float:
        """Mean non-Vanished probability (paper: 1.4/1.7/2.2/1.7% for
        L2C/MCU/CCX/PCIe)."""
        return sum(c.result.erroneous.rate for c in self.cells) / len(
            self.cells
        )

    def mean_omm(self) -> float:
        """Mean OMM rate (the Fig. 4 uncore bars)."""
        return self.mean_rate(Outcome.OMM)


def fig3_outcome_rates(
    component: str,
    benchmarks: list[str],
    n_injections: int = 100,
    machine_config: MachineConfig = MachineConfig(
        cores=4, threads_per_core=2, l2_banks=8, l2_sets=16
    ),
    scale: float = 1.0 / 100_000.0,
    seed: int = 2015,
    session: "Session | None" = None,
) -> Fig3Result:
    """Run one Fig. 3 panel: campaigns over the given benchmarks.

    Pass a shared :class:`~repro.api.session.Session` to reuse platforms
    (and their golden runs) across panels.
    """
    session = session if session is not None else Session()
    out = Fig3Result(component)
    for short in benchmarks:
        spec = ExperimentSpec(
            benchmark=short,
            component=component,
            mode="injection",
            machine=machine_config,
            scale=scale,
            seed=seed,
            n=n_injections,
        )
        out.cells.append(Fig3Cell(component, short, session.run(spec)))
    return out


def fig4_omm_comparison(
    fig3_results: dict[str, Fig3Result],
) -> list[tuple[str, float, str]]:
    """Fig. 4: OMM rates of uncore components vs. published cores.

    Returns (name, omm_rate, kind) rows, uncore first, in paper order.
    """
    rows: list[tuple[str, float, str]] = []
    for comp in UNCORE_TARGETS:
        if comp in fig3_results:
            rows.append((comp.upper(), fig3_results[comp].mean_omm(), "uncore"))
    for name, rate in CORE_OMM_RATES.items():
        rows.append((name, rate, "core"))
    return rows
