"""Injection-window sampling: *when* and *into which instance*.

PCIe injections land inside the DMA transfer window (the paper models
PCIe transferring the input file); the other components sample
uniformly over the whole execution.  Determinism contract:
:func:`sample_point` draws one ``randrange`` for the cycle and one more
for the instance only on multi-instance components.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.soc.geometry import T2_GEOMETRY


@dataclass(frozen=True)
class InjectionWindow:
    """The cycle/instance space one component's injections sample from.

    ``draw_instance`` records whether the instance is randomly drawn:
    for the components with several instances on the T2 (L2C banks,
    MCUs), even on a machine configured with one, so the RNG call
    sequence follows the component, not the geometry.
    """

    lo: int
    hi: int
    instances: int = 1
    draw_instance: bool = False


def injection_window(platform, component: str) -> InjectionWindow:
    """The injection window of ``component`` on ``platform``.

    PCIe windows span the golden run's DMA transfer; other components
    span the whole error-free execution.
    """
    if component == "pcie":
        if platform.golden.pcie_window is None:
            raise ValueError(
                f"benchmark {platform.benchmark!r} has no PCIe input transfer"
            )
        lo, hi = platform.golden.pcie_window
        return InjectionWindow(max(lo, 1), max(hi, lo + 2))
    return InjectionWindow(
        1,
        max(2, platform.golden.cycles - 1),
        platform.machine_config.instances(component),
        draw_instance=T2_GEOMETRY[component].instances > 1,
    )


def sample_point(
    window: InjectionWindow, rng: random.Random
) -> tuple[int, int]:
    """Random ``(injection_cycle, instance)`` inside a window."""
    cycle = rng.randrange(window.lo, window.hi)
    instance = rng.randrange(window.instances) if window.draw_instance else 0
    return cycle, instance
