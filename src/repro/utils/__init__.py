"""Shared utilities: statistics, CDF helpers, rendering."""

from repro.utils.cdf import Cdf
from repro.utils.stats import (
    BinomialEstimate,
    normal_ci_halfwidth,
    required_samples,
    wilson_interval,
)

__all__ = [
    "BinomialEstimate",
    "Cdf",
    "normal_ci_halfwidth",
    "required_samples",
    "wilson_interval",
]
