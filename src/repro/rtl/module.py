"""Base class for flip-flop-level RTL models.

An :class:`RtlModule` declares its storage inventory (registers, register
arrays, SRAM arrays) in its constructor through :meth:`RtlModule.reg`,
:meth:`RtlModule.reg_array` and :meth:`RtlModule.sram_array`, then
implements cycle behaviour in :meth:`RtlModule.tick`.  The base class
provides everything the mixed-mode platform needs:

* flip-flop enumeration and classification (Table 3 / Table 4 totals),
* single-bit error injection by global target-bit index,
* full state snapshot/restore (the co-simulation adapters fork the
  golden copy as a fresh module restored from the target's snapshot),
* reset with configuration-register preservation (for QRR),
* mismatch benignity hooks (the paper's co-simulation exit conditions).
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from collections.abc import Mapping

from repro.rtl.compare import Mismatch, MismatchKind, compare_modules
from repro.rtl.registers import FlipFlopClass, Register, RegisterArray, SramArray
from repro.soc.geometry import ComponentSpec


class RtlModule:
    """A cycle-level, flip-flop-accurate hardware module model."""

    #: the Table 3/4 row this module models (see :meth:`pad`)
    spec: "ComponentSpec | None" = None

    def __init__(self, name: str) -> None:
        self.name = name
        self._registers: "OrderedDict[str, Register | RegisterArray]" = OrderedDict()
        self._srams: "OrderedDict[str, SramArray]" = OrderedDict()
        self._target_bit_index: list[tuple[str, int, int]] | None = None

    # ------------------------------------------------------------------
    # Inventory declaration
    # ------------------------------------------------------------------
    def reg(self, name: str, width: int, **kwargs) -> Register:
        """Declare a scalar register; returns it for direct use."""
        if name in self._registers or name in self._srams:
            raise ValueError(f"duplicate storage element {name!r}")
        register = Register(name, width, **kwargs)
        self._registers[name] = register
        self._target_bit_index = None
        return register

    def reg_array(self, name: str, entries: int, width: int, **kwargs) -> RegisterArray:
        """Declare a register array; returns it for direct use."""
        if name in self._registers or name in self._srams:
            raise ValueError(f"duplicate storage element {name!r}")
        array = RegisterArray(name, entries, width, **kwargs)
        self._registers[name] = array
        self._target_bit_index = None
        return array

    def sram_array(
        self, name: str, entries: int, width: int, maps_to_highlevel: bool = True
    ) -> SramArray:
        """Declare an SRAM array; returns it for direct use."""
        if name in self._registers or name in self._srams:
            raise ValueError(f"duplicate storage element {name!r}")
        sram = SramArray(name, entries, width, maps_to_highlevel)
        self._srams[name] = sram
        return sram

    def registers(self) -> Mapping[str, Register | RegisterArray]:
        return self._registers

    def srams(self) -> Mapping[str, SramArray]:
        return self._srams

    # ------------------------------------------------------------------
    # Flip-flop accounting (Tables 3 and 4)
    # ------------------------------------------------------------------
    def flip_flop_count(self) -> int:
        """Total flip-flops in the module (Table 3 column)."""
        return sum(r.flip_flops for r in self._registers.values())

    def flip_flop_count_by_class(self) -> dict[FlipFlopClass, int]:
        """Flip-flop totals per Table 4 classification."""
        counts = {cls: 0 for cls in FlipFlopClass}
        for reg in self._registers.values():
            counts[reg.ff_class] += reg.flip_flops
        return counts

    def _table4_count(self, ff_class: FlipFlopClass) -> int:
        return getattr(self.spec, f"{ff_class.value}_ffs")

    def pad(self, ff_class: FlipFlopClass, name: str, width: int = 0) -> None:
        """Declare the flip-flops that bring ``ff_class`` up to its
        Table 4 count in :attr:`spec`: one register ``name`` holding the
        whole remainder, or, given ``width``, a non-functional bank
        ``{name}_bank`` of ``width``-bit entries plus a ``{name}_tail``
        register for what is left over."""
        remaining = (
            self._table4_count(ff_class) - self.flip_flop_count_by_class()[ff_class]
        )
        if remaining <= 0:  # pragma: no cover - inventories are static
            raise AssertionError(f"{self.name}: {ff_class.value} inventory too large")
        if not width:
            self.reg(name, remaining, ff_class=ff_class)
            return
        entries, tail = divmod(remaining, width)
        flags = dict(ff_class=ff_class, functional=False)
        self.reg_array(f"{name}_bank", entries, width, **flags)
        if tail:
            self.reg(f"{name}_tail", tail, **flags)

    def check_totals(self) -> None:
        """Assert the inventory matches :attr:`spec` (Tables 3 and 4)."""
        counts = self.flip_flop_count_by_class()
        for ff_class, count in counts.items():
            assert count == self._table4_count(ff_class), (self.name, ff_class)
        assert self.flip_flop_count() == self.spec.flip_flops, self.name

    def target_flip_flop_count(self) -> int:
        """Flip-flops eligible for error injection (Table 4 column 1)."""
        return self.flip_flop_count_by_class()[FlipFlopClass.TARGET]

    def _build_target_index(self) -> list[tuple[str, int, int]]:
        index: list[tuple[str, int, int]] = []
        for name, reg in self._registers.items():
            if reg.ff_class is not FlipFlopClass.TARGET:
                continue
            if isinstance(reg, RegisterArray):
                for entry in range(reg.entries):
                    for bit in range(reg.width):
                        index.append((name, entry, bit))
            else:
                for bit in range(reg.width):
                    index.append((name, 0, bit))
        return index

    def target_bits(self) -> list[tuple[str, int, int]]:
        """Ordered ``(register, entry, bit)`` list of all target flip-flops."""
        if self._target_bit_index is None:
            self._target_bit_index = self._build_target_index()
        return self._target_bit_index

    def flip_target_bit(self, index: int) -> tuple[str, int, int]:
        """Inject a bit flip into target flip-flop ``index``.

        Returns the ``(register, entry, bit)`` location flipped, the one
        ``target_bits()[index]`` names.  The location is found by walking
        the target registers' sizes, so an injection never materializes
        the (tens of thousands of entries) index list.
        """
        offset = index
        if offset < 0:
            offset += self.target_flip_flop_count()
        if offset >= 0:
            for name, reg in self._registers.items():
                if reg.ff_class is not FlipFlopClass.TARGET:
                    continue
                size = reg.flip_flops
                if offset < size:
                    entry, bit = divmod(offset, reg.width)
                    if isinstance(reg, RegisterArray):
                        reg.flip(bit, entry)
                    else:
                        reg.flip(bit)
                    return (name, entry, bit)
                offset -= size
        raise IndexError(f"{self.name}: target flip-flop {index} out of range")

    def flip_bit(self, name: str, entry: int, bit: int) -> None:
        """Inject a bit flip by explicit location (any flip-flop class)."""
        reg = self._registers[name]
        if isinstance(reg, RegisterArray):
            reg.flip(bit, entry)
        else:
            reg.flip(bit)

    def flip_sram_bit(self, name: str, entry: int, bit: int) -> None:
        """Inject a bit upset into an SRAM row (SRAM fault models)."""
        self._srams[name].flip(bit, entry)

    def force_bit(self, name: str, entry: int, bit: int, value: int) -> bool:
        """Force a flip-flop to ``value`` (stuck-at); True if it changed."""
        reg = self._registers[name]
        if isinstance(reg, RegisterArray):
            return reg.force(bit, value, entry)
        return reg.force(bit, value)

    # ------------------------------------------------------------------
    # State manipulation
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, object]:
        """Copy of all storage (flip-flops and SRAMs)."""
        state: dict[str, object] = {}
        for name, reg in self._registers.items():
            state[name] = reg.snapshot()
        for name, sram in self._srams.items():
            state["sram:" + name] = sram.snapshot()
        return state

    def restore(self, state: Mapping[str, object]) -> None:
        """Restore a snapshot produced by :meth:`snapshot`."""
        for name, reg in self._registers.items():
            reg.restore(state[name])
        for name, sram in self._srams.items():
            sram.restore(state["sram:" + name])

    def clone(self) -> "RtlModule":
        """Deep copy of the module and everything it references.

        Not how the co-simulation adapters fork the golden copy: a deep
        copy would follow bound callbacks such as the L2C's ``send_mcu``
        into the whole machine.  They restore a fresh, golden-wired
        module from :meth:`snapshot` instead."""
        return copy.deepcopy(self)

    def reset_flip_flops(
        self, preserve_config: bool = True, preserve_protected: bool = True
    ) -> None:
        """Reset all flip-flops to their reset values (QRR recovery step).

        SRAM contents are preserved -- QRR disables array writes during
        recovery precisely so that the architected arrays survive the
        reset (paper Sec. 6.2).  With ``preserve_config`` set,
        configuration registers keep their values (they are hardened
        instead of being covered by reset+replay, Sec. 6.4 category 2).
        With ``preserve_protected`` set, ECC-protected registers (the
        array-adjacent data buffers) are excluded from the reset domain,
        like the SRAMs they extend.
        """
        for reg in self._registers.values():
            if preserve_config and reg.config:
                continue
            if preserve_protected and reg.ff_class is FlipFlopClass.PROTECTED:
                continue
            reg.reset()

    # ------------------------------------------------------------------
    # Golden comparison hooks
    # ------------------------------------------------------------------
    def compare(self, golden: "RtlModule") -> list[Mismatch]:
        """All storage differences vs. the golden copy."""
        return compare_modules(self, golden)

    def is_mismatch_benign(self, mismatch: Mismatch) -> bool:
        """Whether a mismatch can never cause a functional difference.

        The default implementation handles the generic cases: mismatches
        in non-functional registers (performance counters, debug state).
        Subclasses extend this with structural knowledge -- e.g. a
        corrupted data field of a queue entry whose valid bit is clear
        (the paper's example for exit condition 2).
        """
        if mismatch.kind is MismatchKind.FLIP_FLOP:
            reg = self._registers[mismatch.name]
            if not reg.functional:
                return True
        return False

    def mismatch_maps_to_highlevel(self, mismatch: Mismatch) -> bool:
        """Whether a mismatch lies in state the high-level model carries."""
        if mismatch.kind is MismatchKind.SRAM:
            return self._srams[mismatch.name].maps_to_highlevel
        return False

    # ------------------------------------------------------------------
    # Behaviour
    # ------------------------------------------------------------------
    def tick(self, inputs: object) -> object:
        """Advance one clock cycle.  Subclasses define input/output types."""
        raise NotImplementedError

    def in_flight(self) -> int:
        """Number of operations currently being processed (0 = quiescent)."""
        raise NotImplementedError

    def idle(self) -> bool:
        """Whether :meth:`tick` is a no-op: no output, no state change.

        Covers every register ``tick`` reads or writes, so an idle module
        can sleep until an input arrives or a fault is injected (the
        co-simulation adapters rely on this to leave the event engine's
        active set)."""
        raise NotImplementedError

    def describe_inventory(self) -> list[tuple[str, int, str]]:
        """Human-readable storage inventory: (name, flip_flops, class)."""
        rows = []
        for name, reg in self._registers.items():
            rows.append((name, reg.flip_flops, reg.ff_class.value))
        for name, sram in self._srams.items():
            rows.append(("sram:" + name, 0, "sram"))
        return rows
