"""The canonical result schema shared by every campaign path.

All three experiment modes (injection, QRR, golden) reduce to one
:class:`ExperimentResult`: the spec that produced it, one
:class:`RunRecord` per run, and the golden-run length.  It is the only
per-cell aggregate: outcome counts, the Fig. 3 rates, the persistent
tally and the recovery stats are derived from the records, so the schema
is lossless -- ``save()`` followed by ``load()`` reproduces an equal
object, and every figure and table computed from a loaded result equals
the one computed in the process that ran the cell.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path

from repro.api.spec import ExperimentSpec
from repro.faults.models import DEFAULT_FAULT
from repro.system.outcome import OUTCOME_ORDER, Outcome
from repro.utils.atomic import write_atomic
from repro.utils.stats import BinomialEstimate

#: Bump when the JSON layout changes incompatibly.
SCHEMA_VERSION = 1


@dataclass
class RunRecord:
    """One run of any experiment mode, in the common schema.

    Unused fields stay ``None``/empty: injection runs fill the outcome
    and latency fields, QRR runs fill detection/recovery, golden runs
    fill the error-free execution summary.
    """

    index: int
    outcome: "str | None" = None
    persistent: bool = False
    instance: "int | None" = None
    injection_cycle: "int | None" = None
    flip_location: "tuple[str, int, int] | None" = None
    #: error-propagation latency to the cores (Fig. 8), if observed
    propagation_latency: "int | None" = None
    #: required rollback distance (Fig. 9), if memory was corrupted
    rollback_distance: "int | None" = None
    #: the sampled fault event (repro.faults.FaultEvent dict form)
    fault: "dict | None" = None
    #: QRR: parity detection fired / application recovered correctly
    detected: "bool | None" = None
    recovered: "bool | None" = None
    recovery_cycles: list[int] = field(default_factory=list)
    #: golden: error-free execution summary
    cycles: "int | None" = None
    retired: "int | None" = None
    output_words: "int | None" = None
    output_crc: "int | None" = None

    @property
    def is_erroneous(self) -> bool:
        return self.outcome is not None and self.outcome != Outcome.VANISHED.value

    def to_dict(self) -> dict:
        return {
            "index": self.index,
            "outcome": self.outcome,
            "persistent": self.persistent,
            "instance": self.instance,
            "injection_cycle": self.injection_cycle,
            "flip_location": (
                list(self.flip_location) if self.flip_location else None
            ),
            "propagation_latency": self.propagation_latency,
            "rollback_distance": self.rollback_distance,
            "fault": self.fault,
            "detected": self.detected,
            "recovered": self.recovered,
            "recovery_cycles": list(self.recovery_cycles),
            "cycles": self.cycles,
            "retired": self.retired,
            "output_words": self.output_words,
            "output_crc": self.output_crc,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "RunRecord":
        loc = data.get("flip_location")
        return cls(
            index=data["index"],
            outcome=data.get("outcome"),
            persistent=data.get("persistent", False),
            instance=data.get("instance"),
            injection_cycle=data.get("injection_cycle"),
            flip_location=(loc[0], loc[1], loc[2]) if loc else None,
            propagation_latency=data.get("propagation_latency"),
            rollback_distance=data.get("rollback_distance"),
            fault=data.get("fault"),
            detected=data.get("detected"),
            recovered=data.get("recovered"),
            recovery_cycles=list(data.get("recovery_cycles", ())),
            cycles=data.get("cycles"),
            retired=data.get("retired"),
            output_words=data.get("output_words"),
            output_crc=data.get("output_crc"),
        )


@dataclass
class ExperimentResult:
    """Spec + per-run records + derived aggregates for one cell."""

    spec: ExperimentSpec
    records: list[RunRecord] = field(default_factory=list)
    golden_cycles: int = 0

    # ------------------------------------------------------------------
    # aggregates (all derived, never stored separately)
    # ------------------------------------------------------------------
    @property
    def injections(self) -> int:
        return len(self.records) if self.spec.mode != "golden" else 0

    @property
    def persistent(self) -> int:
        """Runs abandoned at the co-simulation cap (excluded from rates)."""
        return sum(1 for r in self.records if r.persistent)

    def outcome_counts(self) -> dict[str, int]:
        """Counts per outcome category, in Fig. 3 legend order
        (persistent runs have no outcome and are not counted)."""
        counts = {o.value: 0 for o in OUTCOME_ORDER}
        for r in self.records:
            if r.outcome is not None and not r.persistent:
                counts[r.outcome] += 1
        return counts

    def rate(self, outcome: Outcome) -> BinomialEstimate:
        """Rate of one outcome category over all runs.

        Persistent runs count toward the denominator and fold into
        Vanished (conservative, per the paper's Sec. 4.2).
        """
        n = self.outcome_counts()[outcome.value]
        if outcome is Outcome.VANISHED:
            n += self.persistent
        return BinomialEstimate(n, self._samples())

    @property
    def erroneous(self) -> BinomialEstimate:
        """Probability of a non-Vanished outcome (the paper's headline)."""
        bad = sum(
            n
            for name, n in self.outcome_counts().items()
            if name != Outcome.VANISHED.value
        )
        return BinomialEstimate(bad, self._samples())

    def row(self) -> list[str]:
        """One Fig. 3 row: benchmark + the five category rates."""
        return [self.spec.benchmark] + [
            f"{self.rate(o).rate:.2%}" for o in OUTCOME_ORDER
        ]

    def _samples(self) -> int:
        if not self.records:
            raise ValueError("empty campaign cell")
        return len(self.records)

    def masked_count(self) -> int:
        """Events the Protection filter masked (parity/ECC corrected)."""
        return sum(
            1 for r in self.records if r.fault and r.fault.get("masked")
        )

    @property
    def detected(self) -> int:
        return sum(1 for r in self.records if r.detected)

    @property
    def recovered(self) -> int:
        return sum(1 for r in self.records if r.recovered)

    @property
    def failures(self) -> list[tuple[int, int]]:
        """QRR runs that did not recover: (instance, injection_cycle)."""
        return [
            (r.instance, r.injection_cycle)
            for r in self.records
            if r.recovered is False
        ]

    # ------------------------------------------------------------------
    # serialization
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "spec": self.spec.to_dict(),
            "golden_cycles": self.golden_cycles,
            "records": [r.to_dict() for r in self.records],
            # derived aggregates, written for scripting convenience;
            # from_dict ignores them (the records are authoritative)
            "summary": self.summary(),
        }

    def summary(self) -> dict:
        """The aggregate block scripts usually want, JSON-ready."""
        base = {
            "mode": self.spec.mode,
            "component": self.spec.component,
            "benchmark": self.spec.benchmark,
            "seed": self.spec.seed,
            "runs": len(self.records),
        }
        if self.spec.mode == "injection":
            base["fault"] = self.spec.fault or DEFAULT_FAULT
            base["outcome_counts"] = self.outcome_counts()
            base["persistent"] = self.persistent
            base["masked"] = self.masked_count()
            if self.records:
                est = self.erroneous
                base["erroneous"] = {
                    "successes": est.successes,
                    "samples": est.samples,
                }
        elif self.spec.mode == "qrr":
            base["detected"] = self.detected
            base["recovered"] = self.recovered
            base["failures"] = [list(f) for f in self.failures]
        else:
            base["golden_cycles"] = self.golden_cycles
        return base

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentResult":
        version = data.get("schema_version", SCHEMA_VERSION)
        if version != SCHEMA_VERSION:
            raise ValueError(
                f"unsupported result schema version {version!r} "
                f"(this build reads {SCHEMA_VERSION})"
            )
        return cls(
            spec=ExperimentSpec.from_dict(data["spec"]),
            records=[RunRecord.from_dict(r) for r in data.get("records", ())],
            golden_cycles=data.get("golden_cycles", 0),
        )

    def save(self, path: "str | Path") -> Path:
        """Atomically write the canonical JSON form (stable key order)
        to ``path``."""
        return write_atomic(path, dumps_canonical(self.to_dict()) + "\n")

    @classmethod
    def load(cls, path: "str | Path") -> "ExperimentResult":
        return cls.from_dict(json.loads(Path(path).read_text()))


def dumps_canonical(data) -> str:
    """JSON with sorted keys and fixed separators: byte-stable output.

    Serial and parallel sweeps must produce byte-identical files, so
    every JSON artefact goes through this one encoder.
    """
    return json.dumps(data, indent=2, sort_keys=True)


def sweep_document(grid: dict, results: "list[ExperimentResult]") -> str:
    """The canonical sweep document: ``grid`` (a ``Grid.to_dict()``)
    and its cell results in spec order.  ``repro sweep --json`` and the
    serve daemon's result endpoint both write these bytes."""
    return dumps_canonical(
        {
            "schema_version": SCHEMA_VERSION,
            "grid": grid,
            "results": [result.to_dict() for result in results],
        }
    )
