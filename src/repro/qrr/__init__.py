"""Quick Replay Recovery (QRR) -- the paper's Sec. 6 contribution.

QRR handles uncore soft errors without engaging the processor cores:
a record table tracks every incomplete request; logic parity detects a
flip with cycle-level latency; recovery gates the component's writes and
outputs, resets its flip-flops (preserving configuration registers and
the ECC-protected data buffers), and replays the recorded requests in
their original total order.
"""

from repro.qrr.coverage import (
    QrrCoverage,
    classify_coverage,
    improvement_factor,
    residual_error_fraction,
)
from repro.qrr.record import RecordEntry, RecordTable
from repro.qrr.servers import QrrL2cServer, QrrMcuServer
from repro.qrr.campaign import QrrCampaign

__all__ = [
    "QrrCampaign",
    "QrrCoverage",
    "QrrL2cServer",
    "QrrMcuServer",
    "RecordEntry",
    "RecordTable",
    "classify_coverage",
    "improvement_factor",
    "residual_error_fraction",
]
