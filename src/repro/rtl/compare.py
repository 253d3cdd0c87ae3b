"""Golden-model comparison.

During co-simulation the platform periodically compares every storage
element of the target (error-injected) component against an identical
golden copy that receives the same inputs (paper Fig. 1b, item 5/6).
The comparison result drives the decision of when the accelerated mode
can take over (paper Sec. 2.2, phase 2).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:  # pragma: no cover
    from repro.rtl.module import RtlModule


class MismatchKind(enum.Enum):
    """Which kind of storage element diverged from the golden copy."""

    FLIP_FLOP = "flip_flop"
    SRAM = "sram"


@dataclass(frozen=True)
class Mismatch:
    """One storage element whose value differs from the golden copy.

    Attributes:
        kind: flip-flop or SRAM.
        name: register / array name within the module.
        entry: entry index for arrays (0 for scalar registers).
        xor: bitwise difference between target and golden values.
    """

    kind: MismatchKind
    name: str
    entry: int
    xor: int

    @property
    def bit_count(self) -> int:
        """Number of differing bits."""
        return self.xor.bit_count()


def compare_modules(target: "RtlModule", golden: "RtlModule") -> list[Mismatch]:
    """All storage-element differences between target and golden.

    Both modules must be structurally identical (same class, same
    configuration) -- the golden copy is forked from the target (a fresh
    module restored from the target's snapshot) at the injection.
    """
    mismatches: list[Mismatch] = []
    for name, reg in target.registers().items():
        gold = golden.registers()[name]
        if hasattr(reg, "values"):
            tvals = reg.values
            gvals = gold.values
            for entry in range(len(tvals)):
                if tvals[entry] != gvals[entry]:
                    mismatches.append(
                        Mismatch(
                            MismatchKind.FLIP_FLOP,
                            name,
                            entry,
                            tvals[entry] ^ gvals[entry],
                        )
                    )
        elif reg.value != gold.value:
            mismatches.append(
                Mismatch(MismatchKind.FLIP_FLOP, name, 0, reg.value ^ gold.value)
            )
    for name, sram in target.srams().items():
        gold_sram = golden.srams()[name]
        tvals = sram.values
        gvals = gold_sram.values
        for entry in range(len(tvals)):
            if tvals[entry] != gvals[entry]:
                mismatches.append(
                    Mismatch(MismatchKind.SRAM, name, entry, tvals[entry] ^ gvals[entry])
                )
    return mismatches
