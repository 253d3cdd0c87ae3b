"""Soft-error injection campaigns and persistence probes (paper Sec. 3)."""

from repro.injection.campaign import InjectionCampaign
from repro.injection.persistence import PersistenceProbe

__all__ = [
    "InjectionCampaign",
    "PersistenceProbe",
]
