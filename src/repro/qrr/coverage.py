"""QRR flip-flop coverage classification (paper Sec. 6.4).

Three flip-flop categories are selectively radiation-hardened instead of
being covered by logic parity + replay:

1. **Timing-critical** flip-flops without slack for the parity XOR tree
   (1,650 in L2C, 36 in MCU).
2. **Configuration** flip-flops that reset+replay cannot restore
   (55 in L2C, 309 in MCU).
3. The **QRR controller's own** flip-flops (812 per instance).

Everything else is parity-covered: a single flip is detected with
cycle-level latency and recovered by replay.  The residual error
probability with QRR is then (paper footnote 15)::

    covered x 0 + hardened_fraction x 1/1000 = ~0.013%

of the unprotected rate, i.e. a >100x improvement even if every residual
error were erroneous.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.rtl.module import RtlModule
from repro.rtl.registers import FlipFlopClass

#: QRR controller flip-flops per protected instance (record table etc.).
QRR_CONTROLLER_FFS = 812

#: Soft-error-rate reduction factor of radiation-hardened flip-flops
#: [Lilja 13], used by the paper's Sec. 6.4 arithmetic.
HARDENING_SER_REDUCTION = 1000.0


@dataclass(frozen=True)
class QrrCoverage:
    """Per-instance coverage summary for one protected component."""

    component: str
    target_ffs: int
    parity_covered: int
    hardened_timing: int
    hardened_config: int
    qrr_controller: int

    @property
    def hardened_total(self) -> int:
        """All selectively-hardened flip-flops (incl. the controller)."""
        return self.hardened_timing + self.hardened_config + self.qrr_controller


def classify_coverage(module: RtlModule, component: str) -> QrrCoverage:
    """Classify a module's target flip-flops into QRR categories."""
    timing = 0
    config = 0
    covered = 0
    for reg in module.registers().values():
        if reg.ff_class is not FlipFlopClass.TARGET:
            continue
        if reg.timing_critical:
            timing += reg.flip_flops
        elif reg.config:
            config += reg.flip_flops
        else:
            covered += reg.flip_flops
    return QrrCoverage(
        component=component,
        target_ffs=module.target_flip_flop_count(),
        parity_covered=covered,
        hardened_timing=timing,
        hardened_config=config,
        qrr_controller=QRR_CONTROLLER_FFS,
    )


def covered_bits(module: RtlModule) -> list[int]:
    """Indices of a module's parity-covered target flip-flops (the QRR
    detection candidates), in ``target_bits()`` order.

    Walks the target registers' sizes, so the target index is never
    materialized.  Flip-flop inventories do not depend on the instance,
    so a sampling prototype
    (:func:`repro.faults.inventory.prototype_module`) answers for every
    instance before any is attached.
    """
    covered: list[int] = []
    offset = 0
    for reg in module.registers().values():
        if reg.ff_class is not FlipFlopClass.TARGET:
            continue
        size = reg.flip_flops
        if _parity_covered(reg):
            covered.extend(range(offset, offset + size))
        offset += size
    return covered


def is_parity_covered(module: RtlModule, reg_name: str) -> bool:
    """Whether a flipped register is covered by logic parity."""
    return _parity_covered(module.registers()[reg_name])


def _parity_covered(reg) -> bool:
    return (
        reg.ff_class is FlipFlopClass.TARGET
        and not reg.timing_critical
        and not reg.config
    )


def residual_error_fraction(
    coverage: QrrCoverage, hardening_reduction: float = HARDENING_SER_REDUCTION
) -> float:
    """Residual soft-error probability with QRR, as a fraction of the
    unprotected component's (paper footnote 15).

    Parity-covered flips recover with probability 1 (contribution 0);
    hardened flips (incl. the QRR controller's own) retain 1/1000 of
    their raw rate.
    """
    total = coverage.target_ffs + coverage.qrr_controller
    hardened = coverage.hardened_total
    return (hardened / total) / hardening_reduction


def improvement_factor(
    coverage: QrrCoverage, hardening_reduction: float = HARDENING_SER_REDUCTION
) -> float:
    """Erroneous-outcome improvement factor (paper: >100x).

    Conservative, exactly as the paper: assumes every residual hardened-FF
    error produces an erroneous (non-Vanished) outcome.
    """
    return 1.0 / residual_error_fraction(coverage, hardening_reduction)
