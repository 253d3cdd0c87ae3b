"""PCX / CPX packet types.

OpenSPARC T2 processor cores access uncore components by exchanging
request packets (processor-to-cache crossbar, PCX) and return packets
(cache-to-processor crossbar, CPX) over the CCX interconnect.  The RTL
uncore models store in-flight packets field-by-field in flip-flop
register arrays, so every field here has a defined bit width; packets can
be packed to/unpacked from those fields losslessly.

Packets are value objects and must be treated as immutable: derive
modified copies with ``dataclasses.replace`` instead of assigning
fields.  They are deliberately *not* declared ``frozen`` -- a frozen
dataclass pays an ``object.__setattr__`` call per field on
construction, and packet creation sits on the hottest uncore path in
the repository.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

#: Field widths (bits) used when packets are latched in RTL queues.
TYPE_BITS = 3
CORE_BITS = 3
THREAD_BITS = 3
ADDR_BITS = 40
DATA_BITS = 64
REQID_BITS = 16


class PcxType(enum.IntEnum):
    """Request packet types from cores to the memory subsystem."""

    LOAD = 0
    STORE = 1
    #: Atomic test-and-set: returns the old value, writes all-ones.
    ATOMIC_TAS = 2
    #: Atomic fetch-and-add: returns the old value, adds the operand.
    ATOMIC_ADD = 3
    #: Instruction fetch (modelled as a load to a code region).
    IFETCH = 4


class CpxType(enum.IntEnum):
    """Return packet types from the memory subsystem to cores."""

    LOAD_RET = 0
    STORE_ACK = 1
    ATOMIC_RET = 2
    #: L1 invalidation generated by the L2 directory on remote stores.
    INVALIDATE = 3
    IFETCH_RET = 4


@dataclass(slots=True)
class PcxPacket:
    """A core-to-uncore request.

    Attributes:
        ptype: request type.
        core: issuing core index.
        thread: issuing hardware-thread index within the core.
        addr: physical byte address (word aligned for LOAD/STORE).
        data: store data / atomic operand.
        reqid: machine-wide request id used to match the return packet.
    """

    ptype: PcxType
    core: int
    thread: int
    addr: int
    data: int = 0
    reqid: int = 0

    def pack_fields(self) -> tuple[int, int, int, int, int, int]:
        """Pack into the RTL queue field tuple (type, core, thread, addr, data, reqid)."""
        return (
            int(self.ptype) & ((1 << TYPE_BITS) - 1),
            self.core & ((1 << CORE_BITS) - 1),
            self.thread & ((1 << THREAD_BITS) - 1),
            self.addr & ((1 << ADDR_BITS) - 1),
            self.data & ((1 << DATA_BITS) - 1),
            self.reqid & ((1 << REQID_BITS) - 1),
        )

    @staticmethod
    def unpack_fields(
        ptype: int, core: int, thread: int, addr: int, data: int, reqid: int
    ) -> "PcxPacket":
        """Rebuild a packet from RTL queue fields.

        A corrupted type field may not decode to a valid :class:`PcxType`;
        such packets surface as protocol errors in the consuming module,
        exactly like a malformed packet in real hardware.
        """
        try:
            decoded = PcxType(ptype)
        except ValueError:
            decoded = PcxType.LOAD  # malformed; consumer flags protocol error
        return PcxPacket(decoded, core, thread, addr, data, reqid)


class McuOp(enum.IntEnum):
    """Operations between L2 banks and their DRAM controller."""

    #: Cache-line fill read.
    READ = 0
    #: Cache-line writeback (posted; no reply).
    WRITE = 1


@dataclass(slots=True)
class McuRequest:
    """An L2-bank-to-MCU request (line granularity).

    Attributes:
        op: read (fill) or write (writeback).
        line_addr: 64-byte-aligned physical address.
        data: eight data words for writes, ``None`` for reads.
        src_bank: issuing L2 bank (routes the reply).
        tag: per-bank transaction id matching the reply.
    """

    op: McuOp
    line_addr: int
    data: tuple[int, ...] | None
    src_bank: int
    tag: int


@dataclass(slots=True)
class McuReply:
    """A fill-data reply from the MCU to an L2 bank."""

    line_addr: int
    data: tuple[int, ...]
    src_bank: int
    tag: int


@dataclass(slots=True)
class CpxPacket:
    """An uncore-to-core return packet."""

    ctype: CpxType
    core: int
    thread: int
    addr: int
    data: int = 0
    reqid: int = 0

    def pack_fields(self) -> tuple[int, int, int, int, int, int]:
        return (
            int(self.ctype) & ((1 << TYPE_BITS) - 1),
            self.core & ((1 << CORE_BITS) - 1),
            self.thread & ((1 << THREAD_BITS) - 1),
            self.addr & ((1 << ADDR_BITS) - 1),
            self.data & ((1 << DATA_BITS) - 1),
            self.reqid & ((1 << REQID_BITS) - 1),
        )

    @staticmethod
    def unpack_fields(
        ctype: int, core: int, thread: int, addr: int, data: int, reqid: int
    ) -> "CpxPacket":
        try:
            decoded = CpxType(ctype)
        except ValueError:
            decoded = CpxType.LOAD_RET
        return CpxPacket(decoded, core, thread, addr, data, reqid)
