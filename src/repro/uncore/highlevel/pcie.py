"""Functional (high-level) model of the PCI Express I/O controller.

The paper models a situation where PCIe I/O transfers the application's
input data file (Sec. 3.2); the high-level state is the RX/TX transfer
buffers (Table 1).  This model DMA-streams the input file into a DRAM
region at a fixed rate and finally sets a completion flag word that the
application polls before consuming its input.
"""

from __future__ import annotations

from typing import Callable

#: Words transferred per cycle while the DMA is active.
DMA_WORDS_PER_CYCLE = 2
#: Completion flag value written once the whole file has landed.
DMA_DONE_FLAG = 1


def file_bytes_to_words(data: bytes) -> list[int]:
    """Pack a byte string into 64-bit little-endian words (zero padded)."""
    words = []
    for i in range(0, len(data), 8):
        chunk = data[i : i + 8]
        words.append(int.from_bytes(chunk.ljust(8, b"\0"), "little"))
    return words


class HighLevelPcieDma:
    """Accelerated-mode model of the PCIe controller's DMA input path.

    Args:
        dram: DRAM port with ``write_word``.
        log_store: optional callback ``(word_addr, cycle)`` recording
            device writes for the rollback-distance analysis.
    """

    def __init__(
        self,
        dram,
        log_store: "Callable[[int, int], None] | None" = None,
        rate: int = DMA_WORDS_PER_CYCLE,
    ) -> None:
        if rate < 1:
            raise ValueError("rate must be at least one word per cycle")
        self.dram = dram
        self.log_store = log_store
        self.rate = rate
        #: the input file, immutable: snapshots share it instead of
        #: copying it
        self.file_words: tuple[int, ...] = ()
        self.dest_base = 0
        self.status_addr = 0
        self.progress = 0
        self.active = False
        self.start_cycle = 0
        self.finish_cycle: int | None = None

    def begin_transfer(
        self, file_words: list[int], dest_base: int, status_addr: int, cycle: int
    ) -> None:
        """Arm a DMA transfer of ``file_words`` into ``dest_base``."""
        if dest_base & 7 or status_addr & 7:
            raise ValueError("DMA addresses must be word aligned")
        self.file_words = tuple(file_words)
        self.dest_base = dest_base
        self.status_addr = status_addr
        self.progress = 0
        self.active = True
        self.start_cycle = cycle
        self.finish_cycle = None

    def tick(self, cycle: int) -> None:
        if not self.active:
            return
        end = min(self.progress + self.rate, len(self.file_words))
        while self.progress < end:
            addr = self.dest_base + 8 * self.progress
            self.dram.write_word(addr, self.file_words[self.progress])
            if self.log_store is not None:
                self.log_store(addr, cycle)
            self.progress += 1
        if self.progress >= len(self.file_words):
            self.dram.write_word(self.status_addr, DMA_DONE_FLAG)
            if self.log_store is not None:
                self.log_store(self.status_addr, cycle)
            self.active = False
            self.finish_cycle = cycle

    def in_flight(self) -> int:
        return len(self.file_words) - self.progress if self.active else 0

    def next_active_cycle(self) -> "int | None":
        """An armed DMA streams every cycle; otherwise the engine idles."""
        return 0 if self.active else None

    def transfer_window(self) -> tuple[int, int]:
        """(start, finish) cycles of the transfer; finish requires completion."""
        if self.finish_cycle is None:
            raise ValueError("transfer has not completed")
        return (self.start_cycle, self.finish_cycle)

    def snapshot(self) -> dict:
        return {
            "file_words": self.file_words,
            "dest_base": self.dest_base,
            "status_addr": self.status_addr,
            "progress": self.progress,
            "active": self.active,
            "start_cycle": self.start_cycle,
            "finish_cycle": self.finish_cycle,
        }

    def restore(self, snap: dict) -> None:
        self.file_words = snap["file_words"]
        self.dest_base = snap["dest_base"]
        self.status_addr = snap["status_addr"]
        self.progress = snap["progress"]
        self.active = snap["active"]
        self.start_cycle = snap["start_cycle"]
        self.finish_cycle = snap["finish_cycle"]
