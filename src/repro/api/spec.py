"""Experiment specifications -- the unit of work of the unified API.

An :class:`ExperimentSpec` names everything needed to reproduce one
campaign cell: the benchmark, the target component, the machine
geometry, the workload scale, the seed, and the number of injections.
Specs are frozen, hashable, and round-trip losslessly through plain
dicts/JSON, which is what lets the executors ship them to worker
processes and lets results embed the spec that produced them.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, replace

from repro.faults.models import DEFAULT_FAULT, FaultModel, parse_fault
from repro.soc.geometry import UNCORE_TARGETS
from repro.system.machine import ENGINES, MachineConfig
from repro.workloads import ALL_BENCHMARKS, PCIE_BENCHMARKS

#: Experiment modes understood by the session layer.
MODES = ("injection", "qrr", "golden")

#: Components accepted for plain injection campaigns (paper Fig. 3).
INJECTION_COMPONENTS = UNCORE_TARGETS

#: Components protected by QRR (paper Sec. 6: the memory subsystem).
QRR_COMPONENTS = ("l2c", "mcu")

#: Campaign-facing machine geometry (the T2 configuration the CLI and
#: the benches use; tests pass smaller geometries explicitly).
DEFAULT_MACHINE = MachineConfig(
    cores=8, threads_per_core=4, l2_banks=8, l2_sets=8, l2_ways=4
)

#: Default workload scale for campaigns (cycle budget ~1/40,000 of the
#: paper's Table 5 lengths).
DEFAULT_SCALE = 1.0 / 40_000.0


@dataclass(frozen=True)
class ExperimentSpec:
    """One fully-determined experiment cell.

    Attributes:
        benchmark: Table 5 abbreviation (``fft``, ``p-wc``, ...).
        component: injection target (``l2c``/``mcu``/``ccx``/``pcie``);
            ``None`` for golden runs.
        mode: ``injection`` (Fig. 3 outcome campaign), ``qrr``
            (Sec. 6.4 recovery campaign) or ``golden`` (error-free run).
        machine: machine geometry and timing.
        scale: workload cycle-budget scale relative to Table 5.
        seed: campaign seed; drives workload data generation and
            injection-point sampling.
        n: number of injection runs (ignored for ``golden``).
        fault: fault-model spec string (``"mbu:k=2"``, ``"stuck"``, ...;
            see :mod:`repro.faults`).  ``None`` -- and the canonical
            default ``"seu"`` with default parameters, which normalizes
            to ``None`` -- is the paper's single-bit flip.  Stored in
            canonical form so two specs share a digest iff they run the
            same fault.
        engine: machine cycle engine (``event``/``reference``);
            ``None`` defers to the session default.  The engines are
            bit-identical (the differential suite enforces it), so the
            engine is an in-process test and diagnostic setting: it is
            excluded from equality, digests and the canonical JSON, so
            results and cache entries are engine-independent and pool,
            cluster and serve workers always run the default engine.
    """

    benchmark: str = "fft"
    component: "str | None" = "l2c"
    mode: str = "injection"
    machine: MachineConfig = field(default_factory=lambda: DEFAULT_MACHINE)
    scale: float = DEFAULT_SCALE
    seed: int = 2015
    n: int = 100
    fault: "str | None" = None
    engine: "str | None" = field(default=None, compare=False)

    @staticmethod
    def _err(field_name: str, message: str) -> None:
        """Validation failure naming the offending spec field."""
        raise ValueError(f"ExperimentSpec.{field_name}: {message}")

    def __post_init__(self) -> None:
        if self.mode not in MODES:
            self._err("mode", f"unknown mode {self.mode!r}; known: {MODES}")
        if self.benchmark not in ALL_BENCHMARKS:
            self._err(
                "benchmark",
                f"unknown benchmark {self.benchmark!r}; "
                f"known: {sorted(ALL_BENCHMARKS)}",
            )
        if self.mode == "golden":
            # golden runs have no injection target; component == "pcie"
            # survives as "DMA the input file over PCIe"
            if self.component == "pcie":
                if self.benchmark not in PCIE_BENCHMARKS:
                    self._err(
                        "component",
                        f"benchmark {self.benchmark!r} has no input file to "
                        f"DMA over PCIe",
                    )
            elif self.component is not None:
                object.__setattr__(self, "component", None)
        elif self.mode == "injection":
            if self.component not in INJECTION_COMPONENTS:
                self._err(
                    "component",
                    f"injection component must be one of "
                    f"{INJECTION_COMPONENTS}, got {self.component!r}",
                )
            if (
                self.component == "pcie"
                and self.benchmark not in PCIE_BENCHMARKS
            ):
                self._err(
                    "component",
                    f"benchmark {self.benchmark!r} has no input file; PCIe "
                    f"injections need one of {sorted(PCIE_BENCHMARKS)}",
                )
        elif self.mode == "qrr":
            if self.component not in QRR_COMPONENTS:
                self._err(
                    "component",
                    f"QRR protects {QRR_COMPONENTS}, got {self.component!r}",
                )
        self._normalize_fault()
        if self.engine is not None and self.engine not in ENGINES:
            self._err(
                "engine",
                f"unknown engine {self.engine!r}; known: {ENGINES}",
            )
        if self.mode != "golden" and self.n < 1:
            self._err("n", f"must be at least 1, got {self.n}")
        if self.scale <= 0.0:
            self._err("scale", f"must be positive, got {self.scale}")

    def _normalize_fault(self) -> None:
        """Parse, validate and canonicalize the fault spec string.

        The explicit default (``"seu"`` with default parameters)
        normalizes to ``None`` so it serializes, digests and caches
        identically to an unset fault.
        """
        if self.fault is None:
            return
        try:
            model = parse_fault(self.fault)
        except ValueError as exc:
            self._err("fault", str(exc))
        if self.mode == "golden":
            # golden runs inject nothing, like component normalization
            object.__setattr__(self, "fault", None)
            return
        if self.mode == "qrr":
            self._err(
                "fault",
                "QRR campaigns inject parity-covered single-bit flips; "
                "fault models apply to injection mode only",
            )
        try:
            model.validate_component(self.component)
        except ValueError as exc:
            self._err("fault", str(exc))
        canonical = model.spec_string()
        object.__setattr__(
            self, "fault", None if canonical == DEFAULT_FAULT else canonical
        )

    # ------------------------------------------------------------------
    @property
    def pcie_input(self) -> bool:
        """Whether the platform must DMA the input file over PCIe."""
        return self.component == "pcie"

    def platform_key(self) -> tuple:
        """Cache key: specs sharing it can share one platform/golden run.

        The engine is part of the key: engines are bit-identical, so
        sharing across engines would be *correct*, but it would silently
        run a spec's campaign on another spec's engine -- confusing for
        performance comparisons.
        """
        return (
            self.benchmark,
            self.machine,
            self.scale,
            self.seed,
            self.pcie_input,
            self.engine,
        )

    def fault_model(self) -> FaultModel:
        """The fault model this spec selects (default: single-bit flip)."""
        return parse_fault(self.fault)

    def label(self) -> str:
        """Short human-readable cell name for logs and progress output."""
        comp = self.component or "-"
        label = f"{self.mode}:{comp}:{self.benchmark}:seed={self.seed}"
        if self.fault is not None:
            label += f":fault={self.fault}"
        return label

    def digest(self) -> str:
        """Stable content hash of the spec (the result-cache key).

        Derived from the canonical JSON form with a fixed-size blake2b
        digest -- never ``hash()``, which varies per process under
        PYTHONHASHSEED randomization.  Two specs share a digest iff they
        produce byte-identical campaign results (the determinism
        contract: a spec fully determines its campaign).
        """
        blob = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        ).encode("utf-8")
        return hashlib.blake2b(blob, digest_size=16).hexdigest()

    def with_(self, **changes) -> "ExperimentSpec":
        """A copy with the given fields replaced (validation re-runs)."""
        return replace(self, **changes)

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        out = {
            "benchmark": self.benchmark,
            "component": self.component,
            "mode": self.mode,
            "machine": self.machine.to_dict(),
            "scale": self.scale,
            "seed": self.seed,
            "n": self.n,
        }
        # omitted when default so pre-fault spec digests (and cached
        # sweep results keyed by them) stay valid; the engine is never
        # serialized (bit-identical engines must share digests, cache
        # entries and canonical result bytes)
        if self.fault is not None:
            out["fault"] = self.fault
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentSpec":
        return cls(
            benchmark=data["benchmark"],
            component=data.get("component"),
            mode=data.get("mode", "injection"),
            machine=MachineConfig.from_dict(data.get("machine", {})),
            scale=data.get("scale", DEFAULT_SCALE),
            seed=data.get("seed", 2015),
            n=data.get("n", 100),
            fault=data.get("fault"),
        )
