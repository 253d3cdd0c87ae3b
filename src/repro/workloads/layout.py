"""Memory-layout helper for workload construction.

Gives every benchmark the same address-space shape:

* ``GLOBALS`` (0x10000): locks, barrier counters, reduction words, the
  PCIe input-completion flag (offset 0).
* ``INPUT`` (0x100000): the DMA'd input data file.
* ``HEAP`` (0x800000): application data structures.

The gaps between regions matter for outcome fidelity: a corrupted
pointer/index that escapes a region traps (UT), while corruption that
stays inside the heap silently corrupts data (OMM/ONA) -- mirroring how
real address-related uncore errors behave (paper Sec. 5.2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.program import Program
from repro.workloads.base import WorkloadImage

GLOBALS_BASE = 0x10000
GLOBALS_SIZE = 0x4000
INPUT_BASE = 0x100000
HEAP_BASE = 0x800000

#: Globals word 0 is the PCIe DMA completion flag the application polls.
INPUT_STATUS_ADDR = GLOBALS_BASE


@dataclass
class ImageBuilder:
    """Accumulates regions / initial memory while programs are built."""

    name: str
    threads: int
    _globals_cursor: int = 8  # word 0 reserved for the input status flag
    _heap_cursor: int = 0
    _init_words: dict[int, int] = field(default_factory=dict)
    _global_names: dict[str, int] = field(default_factory=dict)
    _input_words: "list[int] | None" = None

    # -- globals ---------------------------------------------------------
    def global_word(self, name: str, init: int = 0) -> int:
        """Allocate (or fetch) a named word in the globals region."""
        if name in self._global_names:
            return self._global_names[name]
        addr = GLOBALS_BASE + self._globals_cursor
        self._globals_cursor += 8
        if self._globals_cursor > GLOBALS_SIZE:
            raise ValueError("globals region exhausted")
        self._global_names[name] = addr
        if init:
            self._init_words[addr] = init
        return addr

    def barrier_counter(self, episode: str) -> int:
        """A fresh counter word for one barrier episode."""
        return self.global_word(f"barrier:{episode}")

    def lock_word(self, name: str) -> int:
        return self.global_word(f"lock:{name}")

    # -- heap -------------------------------------------------------------
    def alloc(self, name: str, words: int) -> int:
        """Allocate a heap array; returns its base address."""
        if words <= 0:
            raise ValueError(f"array {name!r}: must allocate at least one word")
        addr = HEAP_BASE + self._heap_cursor
        self._heap_cursor += words * 8
        return addr

    def init_word(self, addr: int, value: int) -> None:
        self._init_words[addr] = value & ((1 << 64) - 1)

    def init_array(self, base: int, values) -> None:
        for i, value in enumerate(values):
            self.init_word(base + 8 * i, value)

    # -- input file --------------------------------------------------------
    def set_input_file(self, words: list[int]) -> int:
        """Register the DMA'd input file; returns its base address."""
        self._input_words = list(words)
        return INPUT_BASE

    # -- finalization -------------------------------------------------------
    def finish(self, programs: list[Program]) -> WorkloadImage:
        if len(programs) != self.threads:
            raise ValueError("one program per thread required")
        regions = [
            (GLOBALS_BASE, GLOBALS_SIZE, "globals"),
            (HEAP_BASE, max(self._heap_cursor, 8), "heap"),
        ]
        input_dest = None
        status = None
        if self._input_words is not None:
            regions.append((INPUT_BASE, max(len(self._input_words), 1) * 8, "input"))
            input_dest = INPUT_BASE
            status = INPUT_STATUS_ADDR
        thread_regs = [
            {15: tid, 14: self.threads} for tid in range(self.threads)
        ]
        return WorkloadImage(
            name=self.name,
            programs=programs,
            regions=regions,
            init_words=dict(self._init_words),
            thread_regs=thread_regs,
            input_file_words=self._input_words,
            input_dest=input_dest,
            input_status_addr=status,
        )
