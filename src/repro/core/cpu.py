"""In-order, fine-grained multi-threaded core model.

Each core holds several hardware threads and a small shared write-through
L1 data cache (word-granular, direct-mapped).  One instruction issues per
core per cycle, round-robin over ready threads -- the scheduling
discipline of the OpenSPARC T2.  The pick is O(1): each core keeps a
bitmask of its issuable threads, and a table shared by every core of the
same thread count maps (round-robin head, mask) to the thread to issue.
Memory traffic leaves the core as PCX packets and returns as CPX
packets; the machine (or, during co-simulation, the RTL uncore model)
sits on the other side.

Coherence: the L2 directory sends INVALIDATE packets when another core
stores to a cached line; atomics bypass the L1 and serialize at the L2
bank.  Stores are posted (write-through, allocate-on-store into the local
L1) with a per-thread credit limit; atomics drain the thread's store
credits first, which gives release-consistency-style ordering across
banks while plain stores to one bank stay ordered by the bank FIFO.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

from repro.core.isa import NUM_REGS, WORD_MASK, Instr, Op
from repro.core.program import Program
from repro.soc.packets import CpxPacket, CpxType, PcxPacket, PcxType

if TYPE_CHECKING:  # pragma: no cover
    pass

#: Maximum posted (un-acknowledged) stores per hardware thread.
STORE_CREDITS = 8

#: Words per cache line (64B lines, 8B words).
LINE_WORDS = 8


class TrapKind(enum.Enum):
    """Why a thread trapped (all map to the UT outcome category)."""

    BAD_ADDR = "bad_addr"
    MISALIGNED = "misaligned"
    ILLEGAL = "illegal"
    ASSERT_FAIL = "assert_fail"
    BAD_PC = "bad_pc"


@dataclass(frozen=True)
class Trap:
    """Details of a thread trap."""

    kind: TrapKind
    core: int
    thread: int
    pc: int
    addr: int = 0


class ThreadState(enum.Enum):
    READY = "ready"
    #: Waiting for a CPX return packet (load/atomic) or for store credits.
    WAIT_MEM = "wait_mem"
    #: The uncore refused the request this cycle; retry the instruction.
    RETRY = "retry"
    HALTED = "halted"
    TRAPPED = "trapped"


class Thread:
    """One hardware thread: registers, program counter, stall state."""

    __slots__ = (
        "core_idx",
        "thread_idx",
        "program",
        "program_len",
        "handlers",
        "regs",
        "pc",
        "state",
        "wait_reqid",
        "wait_rd",
        "stores_inflight",
        "retired",
        "trap",
        "pending_atomic",
        "bit",
    )

    def __init__(self, core_idx: int, thread_idx: int, program: Program) -> None:
        self.core_idx = core_idx
        self.thread_idx = thread_idx
        #: this thread's bit in its core's issuable mask
        self.bit = 1 << thread_idx
        self.program = program
        self.program_len = len(program)
        self.handlers = compile_program(program)
        self.regs = [0] * NUM_REGS
        self.pc = 0
        self.state = ThreadState.READY
        self.wait_reqid = -1
        self.wait_rd = 0
        self.stores_inflight = 0
        self.retired = 0
        self.trap: Trap | None = None
        #: set when an atomic waits for store-credit drain before issuing
        self.pending_atomic = False

    def write_reg(self, rd: int, value: int) -> None:
        if rd != 0:
            self.regs[rd] = value & WORD_MASK

    def snapshot(self) -> dict:
        return {
            "regs": list(self.regs),
            "pc": self.pc,
            "state": self.state,
            "wait_reqid": self.wait_reqid,
            "wait_rd": self.wait_rd,
            "stores_inflight": self.stores_inflight,
            "retired": self.retired,
            "trap": self.trap,
            "pending_atomic": self.pending_atomic,
        }

    def record(self) -> tuple:
        """:meth:`snapshot` as a flat tuple with the registers packed
        (the form delta checkpoints store; :meth:`snapshot_of` reads it
        back)."""
        return (
            array("Q", self.regs).tobytes(),
            self.pc,
            self.state,
            self.wait_reqid,
            self.wait_rd,
            self.stores_inflight,
            self.retired,
            self.trap,
            self.pending_atomic,
        )

    @staticmethod
    def snapshot_of(record: tuple) -> dict:
        """The :meth:`snapshot` dict a :meth:`record` tuple encodes."""
        (
            regs,
            pc,
            state,
            wait_reqid,
            wait_rd,
            stores_inflight,
            retired,
            trap,
            pending_atomic,
        ) = record
        return {
            "regs": array("Q", regs).tolist(),
            "pc": pc,
            "state": state,
            "wait_reqid": wait_reqid,
            "wait_rd": wait_rd,
            "stores_inflight": stores_inflight,
            "retired": retired,
            "trap": trap,
            "pending_atomic": pending_atomic,
        }

    def restore(self, state: dict) -> None:
        self.regs = list(state["regs"])
        self.pc = state["pc"]
        self.state = state["state"]
        self.wait_reqid = state["wait_reqid"]
        self.wait_rd = state["wait_rd"]
        self.stores_inflight = state["stores_inflight"]
        self.retired = state["retired"]
        self.trap = state["trap"]
        self.pending_atomic = state["pending_atomic"]


#: thread count -> its round-robin pick table (see :func:`_pick_table`)
_PICK_TABLES: dict[int, list] = {}


class _PickRow(dict):
    """One round-robin head's pick row, filled on first use of a mask."""

    def __init__(self, rr: int, picks: list) -> None:
        super().__init__()
        self.rr = rr
        self.picks = picks

    def __missing__(self, mask: int) -> tuple:
        # the first set bit at or after the head, wrapping
        first = mask >> self.rr << self.rr or mask
        pick = self[mask] = self.picks[(first & -first).bit_length() - 1]
        return pick


def _pick_table(n: int) -> list:
    """``table[rr][mask]`` -> ``(thread, next rr)`` for ``n`` threads: the
    thread a round-robin scan from head ``rr`` dispatches when ``mask``
    holds the issuable threads (``mask`` non-zero).  A pure function of
    ``n``, built once and shared by every core, like ``_HANDLERS``; each
    row fills on first use of a mask, so any thread count costs only the
    masks it meets."""
    table = _PICK_TABLES.get(n)
    if table is None:
        picks = [(i, i + 1 if i + 1 < n else 0) for i in range(n)]
        table = _PICK_TABLES[n] = [_PickRow(rr, picks) for rr in range(n)]
    return table


class Core:
    """A multi-threaded core with a shared write-through L1 word cache.

    The machine wires up three callbacks:

    * ``issue_pcx(pkt) -> bool``: hand a request to the uncore; ``False``
      means back-pressure (retry next cycle).
    * ``check_addr(addr) -> bool``: core-side address validity (an access
      outside every allocated region traps, modelling an MMU fault).
    * ``write_output(slot, value)``: the application output channel.
    """

    def __init__(
        self,
        core_idx: int,
        l1_words: int = 512,
        issue_pcx: "Callable[[PcxPacket], bool] | None" = None,
        check_addr: "Callable[[int], bool] | None" = None,
        write_output: "Callable[[int, int], None] | None" = None,
        alloc_reqid: "Callable[[], int] | None" = None,
    ) -> None:
        if l1_words & (l1_words - 1):
            raise ValueError("l1_words must be a power of two")
        self.core_idx = core_idx
        self.threads: list[Thread] = []
        self._rr = 0
        #: ``_pick[rr][mask]`` -> ``(thread index, next rr)``: the
        #: round-robin pick for this core's thread count (shared table)
        self._pick: list = _pick_table(0)
        self._l1_size = l1_words
        self._l1_tags = [-1] * l1_words
        self._l1_vals = [0] * l1_words
        self.issue_pcx = issue_pcx
        self.check_addr = check_addr
        self.write_output = write_output
        self.alloc_reqid = alloc_reqid
        #: CPX packets that matched no waiting thread (protocol anomalies).
        self.dropped_cpx = 0
        #: L1 invalidations processed.
        self.invalidations = 0
        #: bitmask of the threads ``step()`` may dispatch: READY or RETRY,
        #: or WAIT_MEM on a pending atomic whose stores have drained.
        #: ``step()`` issues an instruction this cycle iff it is non-zero.
        self._issuable = 0
        #: set whenever architected core state may have changed since the
        #: last delta checkpoint (read and cleared by the snapshot chain)
        self.dirty = True
        #: L1 indices touched since the last delta capture (None: delta
        #: tracking off); lets checkpoints skip copying the L1 arrays
        self._l1_dirty: "set[int] | None" = None
        #: L1 entries delta captures stored sparsely since the L1 was last
        #: stored whole (the base checkpoint counts as whole)
        self._l1_sparse = 0
        #: per thread, the :meth:`Thread.record` of the last delta capture
        #: (None: delta tracking off); checkpoints store changed ones only
        self._thread_anchor: "list[tuple] | None" = None
        #: optional machine hook ``(trapped: bool) -> None`` fired when a
        #: thread enters HALTED or TRAPPED (drives O(1) run-loop checks)
        self.on_thread_stop: "Callable[[bool], None] | None" = None

    # ------------------------------------------------------------------
    # L1 cache (word-granular, direct-mapped, write-through)
    # ------------------------------------------------------------------
    def _l1_index(self, addr: int) -> int:
        return (addr >> 3) & (self._l1_size - 1)

    def l1_lookup(self, addr: int) -> int | None:
        idx = self._l1_index(addr)
        if self._l1_tags[idx] == addr:
            return self._l1_vals[idx]
        return None

    def l1_fill(self, addr: int, value: int) -> None:
        idx = self._l1_index(addr)
        self._l1_tags[idx] = addr
        self._l1_vals[idx] = value & WORD_MASK
        if self._l1_dirty is not None:
            self._l1_dirty.add(idx)

    def l1_invalidate_line(self, line_addr: int) -> None:
        """Drop every word of a 64-byte line from the L1."""
        base = line_addr & ~63
        mask = self._l1_size - 1
        tags = self._l1_tags
        dirty = self._l1_dirty
        for addr in range(base, base + 8 * LINE_WORDS, 8):
            idx = (addr >> 3) & mask
            if tags[idx] == addr:
                tags[idx] = -1
                if dirty is not None:
                    dirty.add(idx)
        self.invalidations += 1

    # ------------------------------------------------------------------
    # Thread management
    # ------------------------------------------------------------------
    def add_thread(self, program: Program) -> Thread:
        thread = Thread(self.core_idx, len(self.threads), program)
        self.threads.append(thread)
        self._pick = _pick_table(len(self.threads))
        self._issuable |= thread.bit
        return thread

    def all_halted(self) -> bool:
        return all(
            t.state in (ThreadState.HALTED, ThreadState.TRAPPED) for t in self.threads
        )

    def any_trapped(self) -> Trap | None:
        for t in self.threads:
            if t.trap is not None:
                return t.trap
        return None

    # ------------------------------------------------------------------
    # CPX delivery
    # ------------------------------------------------------------------
    def deliver_cpx(
        self,
        pkt: CpxPacket,
        _INV=CpxType.INVALIDATE,
        _ACK=CpxType.STORE_ACK,
        _LOAD_RET=CpxType.LOAD_RET,
        _WAIT=ThreadState.WAIT_MEM,
        _READY=ThreadState.READY,
        _M=WORD_MASK,
    ) -> None:
        """Process a return packet addressed to this core.

        A corrupted packet (wrong thread/reqid) that matches no waiting
        thread is dropped and counted -- the original requester keeps
        waiting, which is how lost replies turn into Hang outcomes.
        """
        self.dirty = True
        ctype = pkt.ctype
        if ctype is _INV:
            self.l1_invalidate_line(pkt.addr)
            return
        threads = self.threads
        thread_idx = pkt.thread
        if ctype is _ACK:
            if 0 <= thread_idx < len(threads):
                thread = threads[thread_idx]
                inflight = thread.stores_inflight
                if inflight > 0:
                    thread.stores_inflight = inflight - 1
                    if (
                        inflight == 1
                        and thread.pending_atomic
                        and thread.state is _WAIT
                    ):
                        # the last store drained: the atomic may issue
                        self._issuable |= thread.bit
                    return
            self.dropped_cpx += 1
            return
        # LOAD_RET / ATOMIC_RET / IFETCH_RET complete a stalled thread.
        if 0 <= thread_idx < len(threads):
            thread = threads[thread_idx]
            if (
                thread.state is _WAIT
                and not thread.pending_atomic
                and thread.wait_reqid == pkt.reqid
            ):
                data = pkt.data
                rd = thread.wait_rd
                if rd:  # write_reg inlined (r0 writes are discarded)
                    thread.regs[rd] = data & _M
                if ctype is _LOAD_RET:
                    addr = pkt.addr
                    idx = (addr >> 3) & (self._l1_size - 1)
                    self._l1_tags[idx] = addr
                    self._l1_vals[idx] = data & _M
                    dirty = self._l1_dirty
                    if dirty is not None:
                        dirty.add(idx)
                thread.wait_reqid = -1
                thread.state = _READY
                self._issuable |= thread.bit
                return
        self.dropped_cpx += 1

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self, cycle: int, _READY=ThreadState.READY) -> bool:
        """Issue at most one instruction.  Returns True if one retired.

        The round-robin pick is one lookup: ``_pick[_rr][_issuable]``
        gives the first issuable thread at or after the round-robin head
        and the head after it, so the cost does not grow with the thread
        count.  A picked thread waiting on a drained pending atomic
        issues that atomic now.  Dispatch is inlined -- this is the
        hottest function in the repository.
        """
        mask = self._issuable
        if not mask:
            return False
        idx, self._rr = self._pick[self._rr][mask]
        thread = self.threads[idx]
        self.dirty = True
        pc = thread.pc
        if not 0 <= pc < thread.program_len:
            return self._trap(thread, TrapKind.BAD_PC)
        thread.state = _READY
        return thread.handlers[pc](self, thread, cycle)

    def _trap(self, thread: Thread, kind: TrapKind, addr: int = 0) -> bool:
        thread.trap = Trap(kind, self.core_idx, thread.thread_idx, thread.pc, addr)
        thread.state = ThreadState.TRAPPED
        self._issuable &= ~thread.bit
        if self.on_thread_stop is not None:
            self.on_thread_stop(True)
        return False

    # ------------------------------------------------------------------
    # Snapshot support
    # ------------------------------------------------------------------
    def snapshot(self) -> dict:
        return {
            "rr": self._rr,
            "l1_tags": list(self._l1_tags),
            "l1_vals": list(self._l1_vals),
            "dropped_cpx": self.dropped_cpx,
            "invalidations": self.invalidations,
            "threads": [t.snapshot() for t in self.threads],
        }

    def restore(self, state: dict) -> None:
        self._rr = state["rr"]
        self._l1_tags = list(state["l1_tags"])
        self._l1_vals = list(state["l1_vals"])
        self.dropped_cpx = state["dropped_cpx"]
        self.invalidations = state["invalidations"]
        for thread, tstate in zip(self.threads, state["threads"]):
            thread.restore(tstate)
        self.dirty = True
        self._recount()

    def _recount(
        self,
        _READY=ThreadState.READY,
        _RETRY=ThreadState.RETRY,
        _WAIT=ThreadState.WAIT_MEM,
    ) -> None:
        """Rebuild the issuable mask from the thread states."""
        mask = 0
        for t in self.threads:
            state = t.state
            if (
                state is _READY
                or state is _RETRY
                or (state is _WAIT and t.pending_atomic and not t.stores_inflight)
            ):
                mask |= t.bit
        self._issuable = mask

    # ------------------------------------------------------------------
    # Delta capture (see repro.system.snapshots)
    # ------------------------------------------------------------------
    def delta_capture_begin(self) -> None:
        """Start tracking L1 and thread changes for delta checkpoints."""
        self._l1_dirty = set()
        self._l1_sparse = 0
        self._thread_anchor = [t.record() for t in self.threads]

    def delta_capture_end(self) -> None:
        self._l1_dirty = None
        self._thread_anchor = None

    def delta_snapshot(self) -> tuple:
        """Changes since the last capture, as the flat tuple
        ``(rr, dropped_cpx, invalidations, threads, l1)``.

        ``threads`` holds one entry per thread: its :meth:`Thread.record`
        if that differs from the previous capture, else ``None``.  ``l1``
        is ``None`` when no L1 entry was touched, else three int arrays
        ``(indices, tags, values)`` of the touched entries.  Once the
        sparse entries since the L1 was last stored whole add up to the
        L1's size, the L1 is stored whole instead, as ``(None, tags,
        values)``: rebuilding a checkpoint then never applies more than
        about one L1's worth of sparse entries per core.
        """
        anchor = self._thread_anchor
        threads = []
        for i, t in enumerate(self.threads):
            rec = t.record()
            if rec == anchor[i]:
                threads.append(None)
            else:
                anchor[i] = rec
                threads.append(rec)
        l1 = None
        dirty = self._l1_dirty
        if dirty:
            tags = self._l1_tags
            vals = self._l1_vals
            self._l1_sparse += len(dirty)
            if self._l1_sparse >= self._l1_size:
                l1 = (None, array("q", tags), array("Q", vals))
                self._l1_sparse = 0
            else:
                l1 = (
                    array("I", dirty),
                    array("q", [tags[i] for i in dirty]),
                    array("Q", [vals[i] for i in dirty]),
                )
            self._l1_dirty = set()
        return (
            self._rr,
            self.dropped_cpx,
            self.invalidations,
            tuple(threads),
            l1,
        )

    @staticmethod
    def apply_l1_deltas(tags: list, vals: list, records: list) -> tuple:
        """New L1 ``(tags, vals)`` lists: ``tags``/``vals`` overwritten by
        the L1 records of successive :meth:`delta_snapshot` captures, in
        order (only the first may be a whole one)."""
        first = records[0]
        if first[0] is None:
            tags, vals = first[1].tolist(), first[2].tolist()
            records = records[1:]
        else:
            tags, vals = list(tags), list(vals)
        for indices, new_tags, new_vals in records:
            for k, tag, val in zip(indices, new_tags, new_vals):
                tags[k] = tag
                vals[k] = val
        return tags, vals


# ----------------------------------------------------------------------
# Threaded-code compiler
# ----------------------------------------------------------------------
# ``compile_program`` translates a Program into a list of per-instruction
# closures ("handlers"); ``Core._execute`` dispatches by indexing the
# list with the thread's pc.  This removes the per-cycle decode work
# (Instr field loads and the opcode if/elif chain) from the hottest loop
# in the repository -- the golden runs, phase-1 replays and phase-3
# outcome runs all spend most of their time here.  Handlers must be
# *bit-exact* with the original interpreter; the semantics below mirror
# it branch for branch.
#
# A handler is a pure function of its instruction's value: the factories
# below capture only ``Instr`` fields and module constants, and reach
# thread, core and uncore state solely through the ``core``/``thread``
# arguments of each call.  So one handler per distinct instruction is
# shared by every thread, core, machine and platform in the process
# (``_HANDLERS``, keyed by instruction value); the 18 Table 5 kernels
# for 32 threads at 1/12,000 scale hold 56,558 instructions but only 727
# distinct ones.  A factory that captured anything else would leak state
# between threads -- keep new factories to the same rule.

#: Instr -> its handler; grows with the distinct instructions built.
_HANDLERS: dict[Instr, Callable] = {}


def compile_program(program: Program) -> list:
    """The handler list for a program, one shared handler per distinct
    instruction (see the block comment above)."""
    handlers = []
    for instr in program.instrs:
        handler = _HANDLERS.get(instr)
        if handler is None:
            handler = _HANDLERS[instr] = _HANDLER_FACTORIES[instr.op](instr)
        handlers.append(handler)
    return handlers


def _make_nop(instr):
    def h(core, thread, cycle):
        thread.pc += 1
        thread.retired += 1
        return True

    return h


def _make_ldi(instr):
    rd = instr.rd
    if rd == 0:  # writes to r0 are discarded
        return _make_nop(instr)
    value = instr.imm & WORD_MASK

    def h(core, thread, cycle):
        thread.regs[rd] = value
        thread.pc += 1
        thread.retired += 1
        return True

    return h


def _alu_reg_factory(expr: str):
    """Factory for ``rd <- ra <op> rb`` handlers (masked like write_reg)."""
    src = (
        "def _make(instr):\n"
        "    rd = instr.rd\n"
        "    ra = instr.ra\n"
        "    rb = instr.rb\n"
        "    if rd == 0:\n"
        "        return _make_nop(instr)\n"
        "    def h(core, thread, cycle, _M=WORD_MASK):\n"
        "        regs = thread.regs\n"
        f"        regs[rd] = ({expr}) & _M\n"
        "        thread.pc += 1\n"
        "        thread.retired += 1\n"
        "        return True\n"
        "    return h\n"
    )
    namespace = {"WORD_MASK": WORD_MASK, "_make_nop": _make_nop}
    exec(src, namespace)
    return namespace["_make"]


def _alu_imm_factory(expr: str):
    """Factory for ``rd <- ra <op> imm`` handlers."""
    src = (
        "def _make(instr):\n"
        "    rd = instr.rd\n"
        "    ra = instr.ra\n"
        "    imm = instr.imm\n"
        "    if rd == 0:\n"
        "        return _make_nop(instr)\n"
        "    def h(core, thread, cycle, _M=WORD_MASK):\n"
        "        regs = thread.regs\n"
        f"        regs[rd] = ({expr}) & _M\n"
        "        thread.pc += 1\n"
        "        thread.retired += 1\n"
        "        return True\n"
        "    return h\n"
    )
    namespace = {"WORD_MASK": WORD_MASK, "_make_nop": _make_nop}
    exec(src, namespace)
    return namespace["_make"]


def _branch_factory(cmp: str):
    """Factory for ``if ra <cmp> rb: pc <- imm`` handlers."""
    src = (
        "def _make(instr):\n"
        "    ra = instr.ra\n"
        "    rb = instr.rb\n"
        "    imm = instr.imm\n"
        "    def h(core, thread, cycle):\n"
        "        regs = thread.regs\n"
        f"        if regs[ra] {cmp} regs[rb]:\n"
        "            thread.pc = imm\n"
        "        else:\n"
        "            thread.pc += 1\n"
        "        thread.retired += 1\n"
        "        return True\n"
        "    return h\n"
    )
    namespace: dict = {}
    exec(src, namespace)
    return namespace["_make"]


def _make_jmp(instr):
    imm = instr.imm

    def h(core, thread, cycle):
        thread.pc = imm
        thread.retired += 1
        return True

    return h


def _make_div(instr):
    rd, ra, rb = instr.rd, instr.ra, instr.rb

    def h(core, thread, cycle, _ILL=TrapKind.ILLEGAL):
        regs = thread.regs
        divisor = regs[rb]
        if divisor == 0:
            return core._trap(thread, _ILL)
        if rd:
            regs[rd] = regs[ra] // divisor
        thread.pc += 1
        thread.retired += 1
        return True

    return h


def _make_mod(instr):
    rd, ra, rb = instr.rd, instr.ra, instr.rb

    def h(core, thread, cycle, _ILL=TrapKind.ILLEGAL):
        regs = thread.regs
        divisor = regs[rb]
        if divisor == 0:
            return core._trap(thread, _ILL)
        if rd:
            regs[rd] = regs[ra] % divisor
        thread.pc += 1
        thread.retired += 1
        return True

    return h


def _make_out(instr):
    ra, rb = instr.ra, instr.rb

    def h(core, thread, cycle):
        regs = thread.regs
        core.write_output(regs[ra], regs[rb])
        thread.pc += 1
        thread.retired += 1
        return True

    return h


def _make_assert_eq(instr):
    ra, rb = instr.ra, instr.rb

    def h(core, thread, cycle, _AF=TrapKind.ASSERT_FAIL):
        regs = thread.regs
        if regs[ra] != regs[rb]:
            return core._trap(thread, _AF)
        thread.pc += 1
        thread.retired += 1
        return True

    return h


def _make_halt(instr):
    def h(core, thread, cycle, _HALTED=ThreadState.HALTED):
        thread.state = _HALTED
        core._issuable &= ~thread.bit
        stop = core.on_thread_stop
        if stop is not None:
            stop(False)
        thread.retired += 1
        return True

    return h


def _make_ld(instr):
    rd, ra, imm = instr.rd, instr.ra, instr.imm

    def h(
        core,
        thread,
        cycle,
        _M=WORD_MASK,
        _Pkt=PcxPacket,
        _LOAD=PcxType.LOAD,
        _WAIT=ThreadState.WAIT_MEM,
        _RETRY=ThreadState.RETRY,
        _MIS=TrapKind.MISALIGNED,
        _BAD=TrapKind.BAD_ADDR,
    ):
        regs = thread.regs
        addr = (regs[ra] + imm) & _M
        if addr & 7:
            return core._trap(thread, _MIS, addr)
        check = core.check_addr
        if check is not None and not check(addr):
            return core._trap(thread, _BAD, addr)
        idx = (addr >> 3) & (core._l1_size - 1)
        if core._l1_tags[idx] == addr:
            if rd:
                regs[rd] = core._l1_vals[idx]
            thread.pc += 1
            thread.retired += 1
            return True
        reqid = core.alloc_reqid()
        pkt = _Pkt(_LOAD, core.core_idx, thread.thread_idx, addr, 0, reqid)
        if not core.issue_pcx(pkt):
            thread.state = _RETRY
            return False
        thread.state = _WAIT
        core._issuable &= ~thread.bit
        thread.wait_reqid = reqid
        thread.wait_rd = rd
        thread.pc += 1
        thread.retired += 1
        return True

    return h


def _make_st(instr):
    ra, rb, imm = instr.ra, instr.rb, instr.imm

    def h(
        core,
        thread,
        cycle,
        _M=WORD_MASK,
        _Pkt=PcxPacket,
        _STORE=PcxType.STORE,
        _RETRY=ThreadState.RETRY,
        _MIS=TrapKind.MISALIGNED,
        _BAD=TrapKind.BAD_ADDR,
        _CREDITS=STORE_CREDITS,
    ):
        regs = thread.regs
        addr = (regs[ra] + imm) & _M
        if addr & 7:
            return core._trap(thread, _MIS, addr)
        check = core.check_addr
        if check is not None and not check(addr):
            return core._trap(thread, _BAD, addr)
        if thread.stores_inflight >= _CREDITS:
            thread.state = _RETRY
            return False
        reqid = core.alloc_reqid()
        data = regs[rb]
        pkt = _Pkt(_STORE, core.core_idx, thread.thread_idx, addr, data, reqid)
        if not core.issue_pcx(pkt):
            thread.state = _RETRY
            return False
        # write-through with allocate-on-store into the local L1
        idx = (addr >> 3) & (core._l1_size - 1)
        core._l1_tags[idx] = addr
        core._l1_vals[idx] = data
        dirty = core._l1_dirty
        if dirty is not None:
            dirty.add(idx)
        thread.stores_inflight += 1
        thread.pc += 1
        thread.retired += 1
        return True

    return h


def _atomic_factory(is_faa: bool):
    ptype = PcxType.ATOMIC_ADD if is_faa else PcxType.ATOMIC_TAS

    def _make(instr):
        rd, ra, rb = instr.rd, instr.ra, instr.rb

        def h(
            core,
            thread,
            cycle,
            _M=WORD_MASK,
            _Pkt=PcxPacket,
            _T=ptype,
            _WAIT=ThreadState.WAIT_MEM,
            _RETRY=ThreadState.RETRY,
            _MIS=TrapKind.MISALIGNED,
            _BAD=TrapKind.BAD_ADDR,
            _FAA=is_faa,
        ):
            if thread.pending_atomic:
                # this is the deferred re-issue after the store drain
                # (only the same atomic instruction can re-execute with
                # the flag set, so clearing it here is equivalent to the
                # old clear-on-every-dispatch)
                thread.pending_atomic = False
            regs = thread.regs
            addr = regs[ra] & _M
            if addr & 7:
                return core._trap(thread, _MIS, addr)
            check = core.check_addr
            if check is not None and not check(addr):
                return core._trap(thread, _BAD, addr)
            if thread.stores_inflight > 0:
                # drain posted stores before the atomic (fence semantics)
                # (issuable again when the last store ack arrives)
                thread.state = _WAIT
                thread.pending_atomic = True
                core._issuable &= ~thread.bit
                return False
            reqid = core.alloc_reqid()
            operand = regs[rb] if _FAA else 0
            pkt = _Pkt(_T, core.core_idx, thread.thread_idx, addr, operand, reqid)
            if not core.issue_pcx(pkt):
                thread.state = _RETRY
                return False
            # atomics bypass the L1; drop any stale local copy
            idx = (addr >> 3) & (core._l1_size - 1)
            if core._l1_tags[idx] == addr:
                core._l1_tags[idx] = -1
                dirty = core._l1_dirty
                if dirty is not None:
                    dirty.add(idx)
            thread.state = _WAIT
            core._issuable &= ~thread.bit
            thread.wait_reqid = reqid
            thread.wait_rd = rd
            thread.pc += 1
            thread.retired += 1
            return True

        return h

    return _make


_HANDLER_FACTORIES = {
    Op.NOP: _make_nop,
    Op.LDI: _make_ldi,
    Op.ADD: _alu_reg_factory("regs[ra] + regs[rb]"),
    Op.SUB: _alu_reg_factory("regs[ra] - regs[rb]"),
    Op.MUL: _alu_reg_factory("regs[ra] * regs[rb]"),
    Op.AND: _alu_reg_factory("regs[ra] & regs[rb]"),
    Op.OR: _alu_reg_factory("regs[ra] | regs[rb]"),
    Op.XOR: _alu_reg_factory("regs[ra] ^ regs[rb]"),
    Op.SHL: _alu_reg_factory("regs[ra] << (regs[rb] & 63)"),
    Op.SHR: _alu_reg_factory("regs[ra] >> (regs[rb] & 63)"),
    Op.CMPLT: _alu_reg_factory("1 if regs[ra] < regs[rb] else 0"),
    Op.ADDI: _alu_imm_factory("regs[ra] + imm"),
    Op.MULI: _alu_imm_factory("regs[ra] * imm"),
    Op.ANDI: _alu_imm_factory("regs[ra] & imm"),
    Op.ORI: _alu_imm_factory("regs[ra] | imm"),
    Op.XORI: _alu_imm_factory("regs[ra] ^ imm"),
    Op.SHLI: _alu_imm_factory("regs[ra] << (imm & 63)"),
    Op.SHRI: _alu_imm_factory("regs[ra] >> (imm & 63)"),
    Op.LD: _make_ld,
    Op.ST: _make_st,
    Op.TAS: _atomic_factory(False),
    Op.FAA: _atomic_factory(True),
    Op.BEQ: _branch_factory("=="),
    Op.BNE: _branch_factory("!="),
    Op.BLT: _branch_factory("<"),
    Op.BGE: _branch_factory(">="),
    Op.JMP: _make_jmp,
    Op.OUT: _make_out,
    Op.ASSERT_EQ: _make_assert_eq,
    Op.HALT: _make_halt,
    Op.MOD: _make_mod,
    Op.DIV: _make_div,
}
