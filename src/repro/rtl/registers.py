"""State-element primitives for RTL models.

Three kinds of storage appear in the paper's uncore components:

* **Flip-flops** (:class:`Register`, :class:`RegisterArray`) -- the
  injection targets.  Table 4 classifies them as *target* (active,
  unprotected), *protected* (holding ECC/CRC-encoded data; a single flip
  is corrected, so they are excluded from injection) or *inactive*
  (built-in self-test and redundancy-repair chains, unused on a
  defect-free chip).
* **SRAM arrays** (:class:`SramArray`) -- tag/data/directory arrays and
  transfer buffers.  They are ECC-protected and are not injection
  targets, but they *are* part of the storage compared against the golden
  model, and they are exactly the "high-level uncore state" of Table 1
  that the accelerated mode carries.
"""

from __future__ import annotations

import enum
from collections.abc import Iterator


class FlipFlopClass(enum.Enum):
    """Classification of a flip-flop population (paper Table 4)."""

    #: Active, unprotected flip-flops -- the error-injection targets.
    TARGET = "target"
    #: Flip-flops storing ECC- or CRC-encoded data; single flips are
    #: corrected by the existing machinery, so they are excluded.
    PROTECTED = "protected"
    #: BIST / redundancy-repair flip-flops, unused during normal operation
    #: of a defect-free chip.
    INACTIVE = "inactive"


class Register:
    """A single multi-bit flip-flop register.

    Attributes:
        name: unique name within the owning module.
        width: number of flip-flops (bits).
        value: current contents (unsigned).
        reset_value: contents after a hardware reset.
        ff_class: Table 4 classification.
        functional: whether the value can influence architected behaviour.
            Performance/debug counters are ``functional=False``: a mismatch
            there can never cause a functional difference (the paper's
            co-simulation exit condition 2).
        config: configuration register -- preserved across a QRR reset and
            a candidate for selective hardening (paper Sec. 6, property 2).
        timing_critical: insufficient timing slack for a parity XOR tree;
            QRR hardens these instead of covering them with parity
            (paper Sec. 6.4, category 1).
    """

    __slots__ = (
        "name",
        "width",
        "mask",
        "value",
        "reset_value",
        "ff_class",
        "functional",
        "config",
        "timing_critical",
    )

    def __init__(
        self,
        name: str,
        width: int,
        reset_value: int = 0,
        ff_class: FlipFlopClass = FlipFlopClass.TARGET,
        functional: bool = True,
        config: bool = False,
        timing_critical: bool = False,
    ) -> None:
        if width <= 0:
            raise ValueError(f"register {name!r}: width must be positive")
        mask = (1 << width) - 1
        if reset_value & ~mask:
            raise ValueError(f"register {name!r}: reset value wider than register")
        self.name = name
        self.width = width
        #: ``(1 << width) - 1``, stored: ``width`` never changes
        self.mask = mask
        self.reset_value = reset_value
        self.value = reset_value
        self.ff_class = ff_class
        self.functional = functional
        self.config = config
        self.timing_critical = timing_critical

    @property
    def flip_flops(self) -> int:
        """Number of flip-flops this register contributes."""
        return self.width

    def write(self, value: int) -> None:
        """Clocked update (truncates to width)."""
        self.value = value & self.mask

    def flip(self, bit: int) -> None:
        """Inject a single-bit soft error."""
        if not 0 <= bit < self.width:
            raise IndexError(f"register {self.name!r}: bit {bit} out of range")
        self.value ^= 1 << bit

    def force(self, bit: int, value: int) -> bool:
        """Force ``bit`` to ``value`` (stuck-at); True if it changed."""
        if not 0 <= bit < self.width:
            raise IndexError(f"register {self.name!r}: bit {bit} out of range")
        old = self.value
        if value:
            self.value = old | (1 << bit)
        else:
            self.value = old & ~(1 << bit)
        return self.value != old

    def reset(self) -> None:
        self.value = self.reset_value

    def snapshot(self) -> int:
        return self.value

    def restore(self, state: int) -> None:
        self.value = state & self.mask

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Register({self.name!r}, width={self.width}, value={self.value:#x})"


class RegisterArray:
    """A bank of identical flip-flop registers (e.g. a queue field).

    Entry ``e``, bit ``b`` is one flip-flop; the array contributes
    ``entries * width`` flip-flops.
    """

    __slots__ = (
        "name",
        "entries",
        "width",
        "mask",
        "values",
        "reset_value",
        "ff_class",
        "functional",
        "config",
        "timing_critical",
    )

    def __init__(
        self,
        name: str,
        entries: int,
        width: int,
        reset_value: int = 0,
        ff_class: FlipFlopClass = FlipFlopClass.TARGET,
        functional: bool = True,
        config: bool = False,
        timing_critical: bool = False,
    ) -> None:
        if entries <= 0 or width <= 0:
            raise ValueError(f"array {name!r}: entries and width must be positive")
        self.name = name
        self.entries = entries
        self.width = width
        self.mask = (1 << width) - 1
        self.reset_value = reset_value & self.mask
        self.values = [self.reset_value] * entries
        self.ff_class = ff_class
        self.functional = functional
        self.config = config
        self.timing_critical = timing_critical

    @property
    def flip_flops(self) -> int:
        return self.entries * self.width

    def read(self, entry: int) -> int:
        return self.values[entry]

    def write(self, entry: int, value: int) -> None:
        self.values[entry] = value & self.mask

    def flip(self, bit: int, entry: int = 0) -> None:
        """Inject a single-bit soft error into ``entry``."""
        if not 0 <= entry < self.entries:
            raise IndexError(f"array {self.name!r}: entry {entry} out of range")
        if not 0 <= bit < self.width:
            raise IndexError(f"array {self.name!r}: bit {bit} out of range")
        self.values[entry] ^= 1 << bit

    def force(self, bit: int, value: int, entry: int = 0) -> bool:
        """Force ``entry``'s ``bit`` to ``value``; True if it changed."""
        if not 0 <= entry < self.entries:
            raise IndexError(f"array {self.name!r}: entry {entry} out of range")
        if not 0 <= bit < self.width:
            raise IndexError(f"array {self.name!r}: bit {bit} out of range")
        old = self.values[entry]
        if value:
            self.values[entry] = old | (1 << bit)
        else:
            self.values[entry] = old & ~(1 << bit)
        return self.values[entry] != old

    def reset(self) -> None:
        self.values = [self.reset_value] * self.entries

    def snapshot(self) -> list[int]:
        return list(self.values)

    def restore(self, state: list[int]) -> None:
        if len(state) != self.entries:
            raise ValueError(f"array {self.name!r}: snapshot entry count mismatch")
        self.values = list(state)

    def __iter__(self) -> Iterator[int]:
        return iter(self.values)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RegisterArray({self.name!r}, {self.entries}x{self.width})"


class SramArray:
    """An on-chip SRAM array (ECC-protected; not an injection target).

    ``maps_to_highlevel`` marks arrays whose contents are part of the
    high-level uncore state of Table 1: a golden-model mismatch confined
    to such arrays can be transferred back to the accelerated mode
    (the paper's co-simulation exit condition 1).
    """

    __slots__ = ("name", "entries", "width", "mask", "values", "maps_to_highlevel")

    def __init__(
        self,
        name: str,
        entries: int,
        width: int,
        maps_to_highlevel: bool = True,
    ) -> None:
        if entries <= 0 or width <= 0:
            raise ValueError(f"sram {name!r}: entries and width must be positive")
        self.name = name
        self.entries = entries
        self.width = width
        self.mask = (1 << width) - 1
        self.values = [0] * entries
        self.maps_to_highlevel = maps_to_highlevel

    def read(self, entry: int) -> int:
        return self.values[entry]

    def write(self, entry: int, value: int) -> None:
        self.values[entry] = value & self.mask

    def flip(self, bit: int, entry: int = 0) -> None:
        """Inject a bit upset into one row (SRAM fault models)."""
        if not 0 <= entry < self.entries:
            raise IndexError(f"sram {self.name!r}: entry {entry} out of range")
        if not 0 <= bit < self.width:
            raise IndexError(f"sram {self.name!r}: bit {bit} out of range")
        self.values[entry] ^= 1 << bit

    def snapshot(self) -> list[int]:
        return list(self.values)

    def restore(self, state: list[int]) -> None:
        if len(state) != self.entries:
            raise ValueError(f"sram {self.name!r}: snapshot entry count mismatch")
        self.values = list(state)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"SramArray({self.name!r}, {self.entries}x{self.width})"
