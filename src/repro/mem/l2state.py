"""Architected state of one L2 cache bank.

This is exactly the per-instance "high-level uncore state" of Table 1 for
the L2 cache controller: the tag address array, the cache line state
bits, the cache data array and the L1 cache directory.  The accelerated
mode's functional L2 model operates directly on this state; the
mixed-mode platform transfers it into (and back out of) the RTL model's
SRAM arrays at co-simulation entry/exit.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field

from repro.soc.address import AddressMap, WORDS_PER_LINE


@dataclass(slots=True)
class L2Line:
    """One cache line's architected content.

    Slotted: the functional L2 model's lookup scans these objects on
    every request, and slot loads are measurably cheaper than instance
    dict lookups on that path.
    """

    valid: bool = False
    dirty: bool = False
    tag: int = 0
    #: 8 x 64-bit data words.
    data: list[int] = field(default_factory=lambda: [0] * WORDS_PER_LINE)
    #: Bitmask of cores whose L1 may hold words of this line.
    directory: int = 0


class L2BankState:
    """Tag/state/data/directory arrays of one L2 bank.

    Replacement uses a per-set rotating victim pointer (NRU-flavoured,
    like the T2's pseudo-LRU); the pointer is part of the architected
    state so that the functional model and the RTL model always agree on
    victim selection after a state transfer.
    """

    def __init__(self, bank: int, amap: AddressMap, ways: int = 8) -> None:
        if ways <= 0:
            raise ValueError("ways must be positive")
        self.bank = bank
        self.amap = amap
        self.sets = amap.l2_sets
        self.ways = ways
        self.lines = [
            [L2Line() for _ in range(ways)] for _ in range(self.sets)
        ]
        self.victim_ptr = [0] * self.sets

    # ------------------------------------------------------------------
    # Lookup / allocation
    # ------------------------------------------------------------------
    def lookup(self, addr: int) -> tuple[int, int] | None:
        """Return ``(set, way)`` of the hit line, or None on miss."""
        amap = self.amap
        set_idx = (addr >> amap._set_shift) & amap._set_mask
        tag = addr >> amap._tag_shift
        ways = self.lines[set_idx]
        for way in range(self.ways):
            line = ways[way]
            if line.valid and line.tag == tag:
                return (set_idx, way)
        return None

    def choose_victim(self, set_idx: int) -> int:
        """Pick the victim way for a fill: first invalid, else rotating."""
        ways = self.lines[set_idx]
        for way in range(self.ways):
            if not ways[way].valid:
                return way
        victim = self.victim_ptr[set_idx]
        self.victim_ptr[set_idx] = (victim + 1) % self.ways
        return victim

    def line_addr(self, set_idx: int, way: int) -> int:
        """Physical line address of a resident line."""
        line = self.lines[set_idx][way]
        return self.amap.rebuild_addr(line.tag, set_idx, self.bank)

    def install(
        self, addr: int, data: list[int], dirty: bool = False
    ) -> tuple[int, int]:
        """Install a line (caller must have handled the victim)."""
        set_idx = self.amap.set_of(addr)
        way = self.choose_victim(set_idx)
        line = self.lines[set_idx][way]
        line.valid = True
        line.dirty = dirty
        line.tag = self.amap.tag_of(addr)
        line.data = list(data)
        line.directory = 0
        return (set_idx, way)

    # ------------------------------------------------------------------
    # Snapshot / transfer
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "lines": [
                [
                    (ln.valid, ln.dirty, ln.tag, list(ln.data), ln.directory)
                    for ln in ways
                ]
                for ways in self.lines
            ],
            "victim_ptr": list(self.victim_ptr),
        }

    def delta_anchor(self) -> list:
        """The line records of :meth:`snapshot`, flat in set-major order:
        the reference :meth:`delta` diffs against."""
        return [
            (ln.valid, ln.dirty, ln.tag, list(ln.data), ln.directory)
            for ways in self.lines
            for ln in ways
        ]

    def delta(self, anchor: list) -> tuple:
        """The state as changes against ``anchor`` (a :meth:`delta_anchor`
        list, brought up to date in place): ``(lines, victim_ptr)``.

        ``lines`` holds one flat record ``(index, valid, dirty, tag, data,
        directory)`` per line that differs from its anchor record, with
        ``index`` the line's position in the anchor and ``data`` the
        packed words; ``victim_ptr`` is packed whole.  :meth:`apply_delta`
        folds them back into a :meth:`snapshot`.
        """
        changed = []
        i = 0
        for ways in self.lines:
            for ln in ways:
                if (ln.valid, ln.dirty, ln.tag, ln.data, ln.directory) != anchor[i]:
                    data = ln.data
                    anchor[i] = (ln.valid, ln.dirty, ln.tag, list(data), ln.directory)
                    changed.append(
                        (
                            i,
                            ln.valid,
                            ln.dirty,
                            ln.tag,
                            array("Q", data).tobytes(),
                            ln.directory,
                        )
                    )
                i += 1
        return tuple(changed), array("I", self.victim_ptr)

    @staticmethod
    def apply_delta(snap: dict, lines, victim_ptr: array) -> dict:
        """The :meth:`snapshot` that results from overwriting ``snap``'s
        line records with ``lines`` (:meth:`delta` records, at most one
        per index) and its victim pointers with ``victim_ptr``."""
        folded = snap["lines"]
        if lines:
            ways = len(folded[0])
            folded = [list(w) for w in folded]
            for i, valid, dirty, tag, data, directory in lines:
                set_idx, way = divmod(i, ways)
                folded[set_idx][way] = (
                    valid,
                    dirty,
                    tag,
                    array("Q", data).tolist(),
                    directory,
                )
        return {"lines": folded, "victim_ptr": victim_ptr.tolist()}

    def restore(self, state: dict) -> None:
        for set_idx, ways in enumerate(state["lines"]):
            for way, (valid, dirty, tag, data, directory) in enumerate(ways):
                line = self.lines[set_idx][way]
                line.valid = valid
                line.dirty = dirty
                line.tag = tag
                line.data = list(data)
                line.directory = directory
        self.victim_ptr = list(state["victim_ptr"])

    def resident_lines(self) -> list[tuple[int, int, L2Line]]:
        """All valid lines as ``(set, way, line)`` tuples."""
        found = []
        for set_idx, ways in enumerate(self.lines):
            for way, line in enumerate(ways):
                if line.valid:
                    found.append((set_idx, way, line))
        return found

    def state_bytes(self) -> dict[str, int]:
        """Sizes of the four architected arrays, for the Table 1 check."""
        line_bytes = WORDS_PER_LINE * 8
        nlines = self.sets * self.ways
        tag_bits = 40  # tag field width in the RTL model
        return {
            "tag_address_array": nlines * tag_bits // 8,
            "cache_line_state_bits": nlines * 2 // 8 + 1,
            "cache_data_array": nlines * line_bytes,
            "l1_cache_directory": nlines * 8 // 8,
        }
