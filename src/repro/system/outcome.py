"""Application-level outcome categories (paper Sec. 3.2).

The five categories, as used in the paper and the studies it follows
([Cho 13, Sanda 08, Wang 04]):

* **ONA** -- application output not affected: the run completed and the
  output matches the error-free output, but architected state was touched
  by the error (erroneous packets reached the cores or memory diverged).
* **OMM** -- application output mismatch.
* **UT** -- unexpected termination (a thread trapped).
* **HANG** -- the application stopped making progress.
* **VANISHED** -- the error disappeared without affecting anything.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

from repro.core.cpu import Trap


class Outcome(enum.Enum):
    ONA = "ONA"
    OMM = "OMM"
    UT = "UT"
    HANG = "Hang"
    VANISHED = "Vanished"

    @property
    def is_erroneous(self) -> bool:
        """Non-Vanished outcomes (the paper's erroneous-outcome metric)."""
        return self is not Outcome.VANISHED


#: Ordering used in the paper's Fig. 3 legends.
OUTCOME_ORDER = (Outcome.ONA, Outcome.OMM, Outcome.UT, Outcome.HANG, Outcome.VANISHED)


@dataclass
class RunResult:
    """Result of executing a workload to completion (or failure).

    Attributes:
        completed: every thread halted normally.
        cycles: cycle count at termination.
        output: application output slots (slot -> value).
        trap: first trap, if any thread trapped.
        hung: the watchdog or cycle cap fired.
        retired: total instructions retired.
    """

    completed: bool
    cycles: int
    output: dict[int, int] = field(default_factory=dict)
    trap: Trap | None = None
    hung: bool = False
    retired: int = 0


def classify_outcome(
    result: RunResult,
    golden_output: dict[int, int],
    error_touched_system: bool,
) -> Outcome:
    """Map a run result to the five-category outcome.

    ``error_touched_system`` is True when the injected error propagated
    beyond the target component (erroneous return packets reached the
    cores, or memory/cache state diverged from the golden copy); without
    it a matching output means the error vanished entirely.
    """
    if result.trap is not None:
        return Outcome.UT
    if result.hung:
        return Outcome.HANG
    if result.output != golden_output:
        return Outcome.OMM
    if error_touched_system:
        return Outcome.ONA
    return Outcome.VANISHED
