"""Physical address map.

OpenSPARC T2 interleaves physical addresses across the eight L2 cache
banks on 64-byte cache-line boundaries; each pair of L2 banks shares one
of the four DRAM controllers.  Each L2C/MCU instance therefore serves a
disjoint address range -- the property QRR relies on to keep per-bank
request ordering sufficient (paper Sec. 6.1).
"""

from __future__ import annotations

from dataclasses import dataclass

WORD_BYTES = 8
LINE_BYTES = 64
WORDS_PER_LINE = LINE_BYTES // WORD_BYTES


@dataclass(frozen=True)
class AddressMap:
    """Line/bank/set/tag decomposition of physical addresses.

    Attributes:
        l2_banks: number of L2 cache banks (line-interleaved).
        l2_sets: sets per L2 bank.
        mcus: number of DRAM controllers (each serves
            ``l2_banks / mcus`` banks).
    """

    l2_banks: int = 8
    l2_sets: int = 64
    mcus: int = 4

    def __post_init__(self) -> None:
        if self.l2_banks % self.mcus:
            raise ValueError("l2_banks must be a multiple of mcus")
        for field_name, value in (
            ("l2_banks", self.l2_banks),
            ("l2_sets", self.l2_sets),
            ("mcus", self.mcus),
        ):
            if value <= 0 or value & (value - 1):
                raise ValueError(f"{field_name} must be a positive power of two")
        # precomputed decomposition constants: the decode methods run on
        # every memory operation, so they must not re-derive shifts
        bank_shift = LINE_BYTES.bit_length() - 1  # log2(64) = 6
        set_shift = bank_shift + (self.l2_banks.bit_length() - 1)
        tag_shift = set_shift + (self.l2_sets.bit_length() - 1)
        object.__setattr__(self, "_bank_shift", bank_shift)
        object.__setattr__(self, "_bank_mask", self.l2_banks - 1)
        object.__setattr__(self, "_set_shift", set_shift)
        object.__setattr__(self, "_set_mask", self.l2_sets - 1)
        object.__setattr__(self, "_tag_shift", tag_shift)
        object.__setattr__(self, "_banks_per_mcu", self.l2_banks // self.mcus)

    @property
    def bank_shift(self) -> int:
        return self._bank_shift

    def word_align(self, addr: int) -> int:
        return addr & ~(WORD_BYTES - 1)

    def is_word_aligned(self, addr: int) -> bool:
        return (addr & (WORD_BYTES - 1)) == 0

    def line_addr(self, addr: int) -> int:
        """Align to the containing 64-byte cache line."""
        return addr & ~(LINE_BYTES - 1)

    def word_in_line(self, addr: int) -> int:
        """Word index (0-7) within the cache line."""
        return (addr & (LINE_BYTES - 1)) >> 3

    def bank_of(self, addr: int) -> int:
        """L2 bank serving this address (line-interleaved)."""
        return (addr >> self._bank_shift) & self._bank_mask

    def mcu_of_bank(self, bank: int) -> int:
        return bank // self._banks_per_mcu

    def banks_of_mcu(self, mcu: int) -> tuple[int, ...]:
        """The L2 banks that sit in front of a given MCU."""
        base = mcu * self._banks_per_mcu
        return tuple(range(base, base + self._banks_per_mcu))

    def set_of(self, addr: int) -> int:
        """L2 set index within the bank."""
        return (addr >> self._set_shift) & self._set_mask

    def tag_of(self, addr: int) -> int:
        """L2 tag for the address."""
        return addr >> self._tag_shift

    def rebuild_addr(self, tag: int, set_index: int, bank: int) -> int:
        """Inverse of the tag/set/bank decomposition (line aligned)."""
        return (
            (tag << self._tag_shift)
            | (set_index << self._set_shift)
            | (bank << self._bank_shift)
        )
