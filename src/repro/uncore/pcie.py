"""Flip-flop-level RTL model of the PCI Express I/O controller.

The paper uses an industrial PCIe gen-3 controller implementation
(footnote 7) and models the situation where PCIe transfers the
application's input data file.  This model implements that DMA input
path at flip-flop granularity:

* a DMA descriptor register set (destination address, length, progress),
* a two-stage word pipeline (fetch stage -> payload stage -> memory
  write), so in-flight data and addresses live in flip-flops for a
  couple of cycles,
* a 16-entry TLP replay buffer (retransmission storage, rotating),
* sequence counters and flow-control credit registers,
* LCRC/ECC-protected staging (excluded per Table 4),
* the RX/TX transfer-buffer SRAMs of Table 1 (8KB / 4KB).

Failure modes emerge naturally: a flipped destination or progress bit
redirects or repeats part of the stream (silent data corruption -> OMM
or trap); a flipped length or active bit truncates the transfer or
prevents the completion flag from ever being written (the application
polls forever -> Hang); payload-stage flips corrupt input data values
(the paper's explanation for the PCIe's high OMM rate, Sec. 3.3).

The inventory pads to ``T2_GEOMETRY["pcie"]`` (Tables 3 and 4).
"""

from __future__ import annotations

from collections.abc import Sequence

from repro.rtl.compare import Mismatch, MismatchKind
from repro.rtl.module import RtlModule
from repro.rtl.registers import FlipFlopClass
from repro.soc.geometry import T2_GEOMETRY

REPLAY_ENTRIES = 16
DMA_DONE_FLAG = 1

_WORD_MASK = (1 << 64) - 1


class PcieRtl(RtlModule):
    """RTL model of the PCIe controller's DMA input engine."""

    spec = T2_GEOMETRY["pcie"]

    def __init__(self, port) -> None:
        """``port`` provides ``write_word(addr, value)`` (coherent path)."""
        super().__init__("pcie")
        self.port = port

        # ---- Table 1 transfer buffers (SRAM; high-level state) ----------
        self.rx_buffer = self.sram_array("rx_buffer", 1024, 64)  # 8KB
        self.tx_buffer = self.sram_array("tx_buffer", 512, 64)  # 4KB

        # ---- DMA descriptor ----------------------------------------------
        self.dma_active = self.reg("dma_active", 1)
        self.dma_dest = self.reg("dma_dest", 40)
        self.dma_len = self.reg("dma_len", 32)
        self.dma_progress = self.reg("dma_progress", 32)
        self.dma_status_addr = self.reg("dma_status_addr", 40)

        # ---- word pipeline: fetch stage -> payload stage --------------------
        self.fetch_valid = self.reg("fetch_valid", 1)
        self.fetch_data = self.reg("fetch_data", 64)
        self.fetch_idx = self.reg("fetch_idx", 32)
        self.pay_valid = self.reg("pay_valid", 1)
        self.pay_data = self.reg("pay_data", 64)
        self.pay_addr = self.reg("pay_addr", 40)

        # ---- TLP replay buffer (retransmission storage) -----------------------
        # Slots hold TLPs until the link partner ACKs them; with the
        # modelled error-free link every slot is already acknowledged
        # ("dead"), so corruption there can never be replayed onto the
        # link -- mismatches are benign (functional=False).
        self.replay_data = self.reg_array(
            "replay_buffer", REPLAY_ENTRIES, 640, functional=False
        )
        self.replay_ptr = self.reg("replay_ptr", 4)

        # ---- link-layer counters / credits ----------------------------------------
        self.seq_tx = self.reg("seq_tx", 12)
        self.seq_rx = self.reg("seq_rx", 12)
        self.reg("fc_credits_p", 12, reset_value=64)
        self.reg("fc_credits_np", 12, reset_value=32)
        self.reg("fc_credits_cpl", 12, reset_value=64)

        # ---- config registers (hardened under a QRR-style scheme) -------------------
        self.reg("cfg_bar0", 64, reset_value=0x1000, config=True)
        self.reg("cfg_link_ctl", 48, reset_value=0x3, config=True)
        self.reg("cfg_max_payload", 16, reset_value=256, config=True)

        # ---- lane / PHY status and performance (non-functional) -----------------------
        self.reg_array("phy_lane_status", 16, 40, functional=False)
        self.perf_tlps = self.reg("perf_tlps", 64, functional=False)
        self.perf_bytes = self.reg("perf_bytes", 64, functional=False)

        # ---- LCRC / ECC protected staging (Table 4: excluded) -----------------------------
        self.reg_array("lcrc_replay_stage", 8, 640, ff_class=FlipFlopClass.PROTECTED)
        self.pad(FlipFlopClass.PROTECTED, "lcrc_pipe")

        # ---- balance bank ---------------------------------------------------------------------
        self.pad(FlipFlopClass.TARGET, "tlp_tracking", width=63)
        self.check_totals()

        #: host-side source data (outside the chip; not injectable state;
        #: read only, so the co-simulation adapters share one tuple)
        self.file_words: "Sequence[int]" = ()
        self.start_cycle = 0
        self.finish_cycle: "int | None" = None
        self.write_disable = False

    # ------------------------------------------------------------------
    # HighLevelPcieDma-compatible interface
    # ------------------------------------------------------------------
    @property
    def active(self) -> bool:
        return bool(self.dma_active.value)

    def begin_transfer(
        self, file_words: list[int], dest_base: int, status_addr: int, cycle: int
    ) -> None:
        if dest_base & 7 or status_addr & 7:
            raise ValueError("DMA addresses must be word aligned")
        self.file_words = list(file_words)
        self.dma_dest.write(dest_base)
        self.dma_len.write(len(file_words))
        self.dma_progress.write(0)
        self.dma_status_addr.write(status_addr)
        self.dma_active.write(1)
        self.fetch_valid.write(0)
        self.pay_valid.write(0)
        self.start_cycle = cycle
        self.finish_cycle = None

    def tick(self, cycle: int) -> None:
        if self.write_disable:
            return
        # stage 3: payload stage writes to memory
        if self.pay_valid.value:
            if not self.write_disable:
                self.port.write_word(self.pay_addr.value, self.pay_data.value)
                # mirror into the RX transfer buffer ring (Table 1 state)
                self.rx_buffer.write(
                    (self.pay_addr.value >> 3) & 1023, self.pay_data.value
                )
                # rotate the TLP into the replay buffer
                slot = self.replay_ptr.value % REPLAY_ENTRIES
                tlp = (self.pay_addr.value << 576) | self.pay_data.value
                self.replay_data.write(slot, tlp & ((1 << 640) - 1))
                self.lcrc_replay_stage_mirror(slot, tlp)
                self.replay_ptr.write((self.replay_ptr.value + 1) % REPLAY_ENTRIES)
                self.seq_tx.write((self.seq_tx.value + 1) & 0xFFF)
                self.perf_tlps.write(self.perf_tlps.value + 1)
                self.perf_bytes.write(self.perf_bytes.value + 8)
            self.pay_valid.write(0)
        # stage 2: fetch stage computes the destination address
        if self.fetch_valid.value and not self.pay_valid.value:
            idx = self.fetch_idx.value
            self.pay_addr.write((self.dma_dest.value + 8 * idx) & ((1 << 40) - 1))
            self.pay_data.write(self.fetch_data.value)
            self.pay_valid.write(1)
            self.fetch_valid.write(0)
        # stage 1: fetch the next host word
        if self.dma_active.value and not self.fetch_valid.value:
            progress = self.dma_progress.value
            if progress >= self.dma_len.value:
                # transfer complete (only once the pipeline has drained)
                if not self.pay_valid.value:
                    self.port.write_word(self.dma_status_addr.value, DMA_DONE_FLAG)
                    self.dma_active.write(0)
                    self.finish_cycle = cycle
            else:
                # reading beyond the host buffer returns zeros (a flipped
                # length register streams garbage, it does not crash)
                word = (
                    self.file_words[progress]
                    if progress < len(self.file_words)
                    else 0
                )
                self.fetch_data.write(word)
                self.fetch_idx.write(progress)
                self.fetch_valid.write(1)
                self.dma_progress.write((progress + 1) & 0xFFFF_FFFF)

    def lcrc_replay_stage_mirror(self, slot: int, tlp: int) -> None:
        """Mirror the TLP into the CRC-protected staging (protected FFs)."""
        stage = self._registers["lcrc_replay_stage"]
        stage.write(slot % 8, tlp & ((1 << 640) - 1))

    def in_flight(self) -> int:
        remaining = 0
        if self.dma_active.value:
            remaining = max(0, self.dma_len.value - self.dma_progress.value)
        return remaining + self.fetch_valid.value + self.pay_valid.value

    def idle(self) -> bool:
        return not (
            self.pay_valid.value or self.fetch_valid.value or self.dma_active.value
        )

    def transfer_window(self) -> tuple[int, int]:
        if self.finish_cycle is None:
            raise ValueError("transfer has not completed")
        return (self.start_cycle, self.finish_cycle)

    # ------------------------------------------------------------------
    # Mismatch benignity
    # ------------------------------------------------------------------
    def is_mismatch_benign(self, mismatch: Mismatch) -> bool:
        if super().is_mismatch_benign(mismatch):
            return True
        if mismatch.kind is not MismatchKind.FLIP_FLOP:
            return False
        name = mismatch.name
        if name in ("fetch_data", "fetch_idx"):
            return not self.fetch_valid.value
        if name in ("pay_data", "pay_addr"):
            return not self.pay_valid.value
        return False
