"""Sweep grids: component x benchmark x seed expansion.

The paper's Fig. 3 is a grid of (component, benchmark) campaign cells;
:class:`Grid` expands such sweeps into concrete
:class:`~repro.api.spec.ExperimentSpec` lists that any executor can
consume.  Invalid combinations (PCIe injections into benchmarks without
an input file, non-memory components in QRR mode) are dropped during
expansion, mirroring the paper's own cell selection (Table 5's PCIe
column, Sec. 6's L2C/MCU protection scope).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.api.spec import (
    DEFAULT_MACHINE,
    DEFAULT_SCALE,
    INJECTION_COMPONENTS,
    QRR_COMPONENTS,
    ExperimentSpec,
)
from repro.system.machine import MachineConfig
from repro.workloads import ALL_BENCHMARKS, PCIE_BENCHMARKS


@dataclass(frozen=True)
class Grid:
    """A component x benchmark x seed sweep.

    Expansion order is deterministic: components outermost (one Fig. 3
    panel per component), then benchmarks, then seeds -- the order the
    sweep output is reported in regardless of which executor ran it.

    A grid carries no cycle engine: it is serialized into sweep JSON,
    journals and serve job ids, and engines are digest-neutral, so its
    cells run the default engine wherever they execute.
    """

    components: tuple = INJECTION_COMPONENTS
    benchmarks: tuple = ALL_BENCHMARKS
    seeds: tuple = (2015,)
    mode: str = "injection"
    n: int = 100
    machine: MachineConfig = field(default_factory=lambda: DEFAULT_MACHINE)
    scale: float = DEFAULT_SCALE
    #: fault-model spec string, applied to injection cells (see repro.faults)
    fault: "str | None" = None

    def to_dict(self) -> dict:
        """The grid description embedded in sweep JSON, journals, and
        serve job requests (key order is canonicalized by the JSON
        encoder, so identical grids serialize identically)."""
        return {
            "components": list(self.components),
            "benchmarks": list(self.benchmarks),
            "seeds": list(self.seeds),
            "mode": self.mode,
            "n": self.n,
            "machine": self.machine.to_dict(),
            "scale": self.scale,
            "fault": self.fault,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Grid":
        """Rebuild a grid from :meth:`to_dict` output (journals, sweep
        JSON, serve requests).  Missing optional keys take the dataclass
        defaults and unknown keys are ignored, so an older document's
        ``"engine"`` key changes neither the grid nor its
        :meth:`to_dict`; a malformed machine dict raises ``KeyError`` /
        ``ValueError`` for the caller to surface."""
        return cls(
            components=tuple(
                data.get("components", INJECTION_COMPONENTS)
            ),
            benchmarks=tuple(data.get("benchmarks", ALL_BENCHMARKS)),
            seeds=tuple(data.get("seeds", (2015,))),
            mode=data.get("mode", "injection"),
            n=data.get("n", 100),
            machine=(
                MachineConfig.from_dict(data["machine"])
                if "machine" in data
                else DEFAULT_MACHINE
            ),
            scale=data.get("scale", DEFAULT_SCALE),
            fault=data.get("fault"),
        )

    def specs(self) -> list[ExperimentSpec]:
        """All valid cells of the grid, in reporting order."""
        # parse the fault spec once, up front: a malformed spec is a
        # user error that must propagate, not silently empty the grid
        fault_model = None
        if self.fault is not None and self.mode == "injection":
            from repro.faults.models import parse_fault

            fault_model = parse_fault(self.fault)
        out: list[ExperimentSpec] = []
        # golden cells have no injection target: one spec per benchmark
        components = (None,) if self.mode == "golden" else self.components
        for component in components:
            if not self._component_valid(component, fault_model):
                continue
            for benchmark in self.benchmarks:
                if not self._cell_valid(component, benchmark):
                    continue
                for seed in self.seeds:
                    out.append(
                        ExperimentSpec(
                            benchmark=benchmark,
                            component=component,
                            mode=self.mode,
                            machine=self.machine,
                            scale=self.scale,
                            seed=seed,
                            n=self.n,
                            fault=(
                                self.fault
                                if self.mode == "injection"
                                else None
                            ),
                        )
                    )
        return out

    def _component_valid(self, component: "str | None", fault_model) -> bool:
        if self.mode == "qrr":
            return component in QRR_COMPONENTS
        if self.mode == "injection":
            if component not in INJECTION_COMPONENTS:
                return False
            if fault_model is not None:
                # drop components the fault model cannot target (e.g.
                # SRAM faults on SRAM-less components), mirroring the
                # PCIe input-file cell selection
                try:
                    fault_model.validate_component(component)
                except ValueError:
                    return False
            return True
        return True  # golden mode ignores the component

    def _cell_valid(self, component: str, benchmark: str) -> bool:
        if self.mode == "injection" and component == "pcie":
            return benchmark in PCIE_BENCHMARKS
        return True

    def __len__(self) -> int:
        return len(self.specs())

    def __iter__(self):
        return iter(self.specs())
