"""Delta snapshot chains: checkpoint storage that scales with churn.

The mixed-mode platform checkpoints the whole machine every Cf cycles
(paper: 2M) so injection runs can restore near their injection point.
Full snapshots copy all of DRAM, the store log and every component every
time; at larger scales they dominate the platform's memory (the
ROADMAP's "shard the golden-run snapshots" item).

A :class:`SnapshotChain` stores the **first** checkpoint in full and
every later one as a delta of what changed since the previous one:

* DRAM: the words written (dirty-word tracking in
  :class:`repro.mem.dram.Dram`);
* the store log: the entries touched, packed as two int arrays;
* the output channel: the slots whose value changed;
* components: per-component dirty flags skip the unchanged ones, so
  halted cores, idle banks and a finished PCIe engine cost nothing.
  Within a dirty L2 bank only the line records that differ from the
  previous capture are kept, with packed data words
  (:meth:`repro.mem.l2state.L2BankState.delta`); the bank's queues and
  fill fields are kept whole.  Within a dirty core only the changed
  thread records are kept, as flat tuples with packed registers, and
  the touched L1 entries as int arrays -- or the whole L1, once the
  sparse entries since its last whole copy add up to its size, which
  bounds the work of rebuilding a checkpoint
  (:meth:`repro.core.cpu.Core.delta_snapshot`).  MCUs, the CCX and the
  PCIe engine are small and kept whole.

The chain quacks like the ``dict[int, dict]`` it replaces (a read-only
mapping from checkpoint cycle to a full machine snapshot); materialized
snapshots are ``==`` to what ``Machine.snapshot()`` would have returned
at the same cycle, with the same container types, which the
delta-snapshot tests assert.  Materialized snapshots share unchanged
parts with each other and with the base: treat them as read-only.

Every capture goes through the machine's snapshot entry points, so
stored state is always the exact architected state at a cycle boundary,
and restoring a chain entry into either engine resumes bit-identically.
Chains captured by different engines are interchangeable.
"""

from __future__ import annotations

from collections.abc import Mapping

from repro.core.cpu import Core, Thread
from repro.mem.l2state import L2BankState


class SnapshotChain(Mapping):
    """Periodic machine checkpoints stored as base + deltas.

    Usage (what ``compute_golden`` does)::

        chain = SnapshotChain(machine)
        chain.checkpoint()          # full base at the current cycle
        while running:
            machine.step()
            if machine.cycle % cf == 0:
                chain.checkpoint()  # delta since the previous one
        chain.finalize()            # final state as a delta; stop tracking

    Checkpoints must be taken on a monotonically advancing machine (no
    ``restore`` between checkpoints); reads are valid at any time.

    Each delta holds only what changed (see the module docstring); the
    machine diffs against per-component anchors -- the records of the
    previous capture -- which :meth:`finalize` drops.  Reading a
    checkpoint folds the deltas forward from the base, or from the last
    materialized checkpoint when that one is earlier.
    """

    def __init__(self, machine) -> None:
        self._machine = machine
        self._order: list[int] = []
        #: cycle -> position in ``_order`` (O(1) fold-range lookup)
        self._index: dict[int, int] = {}
        self._base: "dict | None" = None
        self._deltas: dict[int, dict] = {}
        #: most recently materialized (cycle, snapshot) -- bounds the
        #: memory overhead of repeated restores to one full snapshot and
        #: serves as a fold anchor so later materializations do not
        #: restart from the base
        self._memo: "tuple[int, dict] | None" = None
        #: delta from the last checkpoint to the state at finalize()
        self._halt: "dict | None" = None

    # ------------------------------------------------------------------
    # Capture
    # ------------------------------------------------------------------
    def checkpoint(self) -> int:
        """Record the machine state at its current cycle."""
        machine = self._machine
        cycle = machine.cycle
        if self._order and cycle <= self._order[-1]:
            raise ValueError(
                f"checkpoint cycle {cycle} not after {self._order[-1]} "
                f"(was the machine restored mid-chain?)"
            )
        if self._base is None:
            self._base = machine.snapshot()
            machine.delta_capture_begin()
        else:
            self._deltas[cycle] = machine.delta_snapshot()
        self._index[cycle] = len(self._order)
        self._order.append(cycle)
        return cycle

    def finalize(self) -> None:
        """Record the machine's final state as one more delta (read back
        by :meth:`halt_state`) and stop dirty tracking."""
        machine = self._machine
        if self._base is not None:
            self._halt = machine.delta_snapshot()
        machine.delta_capture_end()

    def halt_state(self) -> "dict | None":
        """The full machine snapshot :meth:`finalize` recorded (``None``
        before it).  Not a checkpoint: the mapping never returns it and
        it never becomes the memo."""
        if self._halt is None:
            return None
        return self._materialize(None)

    # ------------------------------------------------------------------
    # Mapping interface (cycle -> full snapshot)
    # ------------------------------------------------------------------
    def __getitem__(self, cycle: int) -> dict:
        return self.state_at(cycle)

    def state_at(self, cycle: int) -> dict:
        """The full snapshot at checkpoint ``cycle`` (what ``chain[cycle]``
        returns).  Phase 3 reads checkpoints to compare through this
        name, so a mapping lookup always means a restore: run tracers
        start a run's restore phase on it."""
        if not self._order:
            raise KeyError(cycle)
        if cycle == self._order[0]:
            return self._base
        if cycle not in self._deltas:
            raise KeyError(cycle)
        if self._memo is not None and self._memo[0] == cycle:
            return self._memo[1]
        from repro import obs

        obs.counter("snapshots.materialized").inc()
        tracer = obs.tracer()
        if tracer is None:
            with obs.timer("snapshots.materialize_seconds").time():
                snap = self._materialize(cycle)
        else:
            with obs.timer("snapshots.materialize_seconds").time(), tracer.span(
                "snapshot_materialize", "snapshot", cycle=cycle
            ):
                snap = self._materialize(cycle)
        self._memo = (cycle, snap)
        return snap

    def scalars(self, cycle: int) -> tuple[int, int, int]:
        """``(retired_total, reqid, last_retire_cycle)`` stored at
        checkpoint ``cycle``, read without materializing it."""
        if self._order and cycle == self._order[0]:
            rec = self._base
        else:
            rec = self._deltas[cycle]
        return rec["retired_total"], rec["reqid"], rec["last_retire_cycle"]

    def __iter__(self):
        return iter(self._order)

    def __len__(self) -> int:
        return len(self._order)

    def __contains__(self, cycle) -> bool:
        return cycle in self._deltas or (
            bool(self._order) and cycle == self._order[0]
        )

    # ------------------------------------------------------------------
    def _materialize(self, cycle: "int | None") -> dict:
        """Fold up to checkpoint ``cycle`` -- ``None``: up to the state
        :meth:`finalize` recorded -- into a full snapshot.

        Folds forward from the nearest earlier materialized snapshot
        (the memo) when one exists, so a sequence of materializations
        does not restart from the base each time.
        """
        idx = len(self._order) if cycle is None else self._index[cycle]
        base = self._base
        anchor_idx = 0
        if self._memo is not None:
            memo_cycle, memo_snap = self._memo
            memo_idx = self._index[memo_cycle]
            if memo_idx < idx:
                base = memo_snap
                anchor_idx = memo_idx
        dram = dict(base["dram"])
        store_log = dict(base["last_store_cycle"])
        output = dict(base["output"])
        mcus = list(base["mcus"])
        pcie = base["pcie"]
        n_cores = len(base["cores"])
        n_banks = len(base["l2banks"])
        #: per core: latest delta record, latest record per thread (None:
        #: unchanged since the fold's base), L1 records since the last
        #: whole one
        core_recs: list = [None] * n_cores
        thread_recs: list = [None] * n_cores
        l1s: list = [None] * n_cores
        #: per bank: latest delta record, latest line record per index
        bank_recs: list = [None] * n_banks
        bank_lines: list = [None] * n_banks
        deltas = [self._deltas[c] for c in self._order[anchor_idx + 1 : idx + 1]]
        if cycle is None:
            deltas.append(self._halt)
        for delta in deltas:
            for addr, value in delta["dram"].items():
                if value is None:
                    dram.pop(addr, None)
                else:
                    dram[addr] = value
            store_log.update(zip(*delta["store_log"]))
            output.update(delta["output"])
            for i, rec in enumerate(delta["cores"]):
                if rec is None:
                    continue
                core_recs[i] = rec
                latest = thread_recs[i]
                if latest is None:
                    thread_recs[i] = list(rec[3])
                else:
                    for j, trec in enumerate(rec[3]):
                        if trec is not None:
                            latest[j] = trec
                l1 = rec[4]
                if l1 is not None:
                    if l1s[i] is None or l1[0] is None:
                        l1s[i] = [l1]
                    else:
                        l1s[i].append(l1)
            for i, rec in enumerate(delta["l2banks"]):
                if rec is None:
                    continue
                bank_recs[i] = rec
                lines = rec["state"][0]
                if lines:
                    if bank_lines[i] is None:
                        bank_lines[i] = {}
                    folded = bank_lines[i]
                    for line in lines:
                        folded[line[0]] = line
            for i, snap in enumerate(delta["mcus"]):
                if snap is not None:
                    mcus[i] = snap
            if delta["pcie"] is not None:
                pcie = delta["pcie"]
        cores = []
        for i, rec in enumerate(core_recs):
            base_core = base["cores"][i]
            if rec is None:
                cores.append(base_core)
                continue
            rr, dropped_cpx, invalidations, _threads, _l1 = rec
            tags, vals = base_core["l1_tags"], base_core["l1_vals"]
            if l1s[i] is not None:
                tags, vals = Core.apply_l1_deltas(tags, vals, l1s[i])
            cores.append(
                {
                    "rr": rr,
                    "l1_tags": tags,
                    "l1_vals": vals,
                    "dropped_cpx": dropped_cpx,
                    "invalidations": invalidations,
                    "threads": [
                        tsnap if trec is None else Thread.snapshot_of(trec)
                        for tsnap, trec in zip(base_core["threads"], thread_recs[i])
                    ],
                }
            )
        l2banks = []
        for i, rec in enumerate(bank_recs):
            base_bank = base["l2banks"][i]
            if rec is None:
                l2banks.append(base_bank)
                continue
            lines = bank_lines[i]
            bank = dict(rec)
            bank["state"] = L2BankState.apply_delta(
                base_bank["state"], lines.values() if lines else (), rec["state"][1]
            )
            l2banks.append(bank)
        last = deltas[-1]
        return {
            "cycle": last["cycle"],
            "dram": dram,
            "output": output,
            "last_store_cycle": store_log,
            "reqid": last["reqid"],
            "last_retire_cycle": last["last_retire_cycle"],
            "retired_total": last["retired_total"],
            "cores": cores,
            "l2banks": l2banks,
            "mcus": mcus,
            "ccx": last["ccx"],
            "pcie": pcie,
            "bank_ingress": last["bank_ingress"],
            "mcu_ingress": last["mcu_ingress"],
        }

    # ------------------------------------------------------------------
    def storage_stats(self) -> dict:
        """What the chain stores vs. what full snapshots would have.

        ``dram_words_stored`` counts base words plus delta entries;
        ``dram_words_full`` is what one-full-copy-per-checkpoint costs.
        ``components_stored``/``components_total`` count per-component
        entries actually kept (dirty components) vs. the full-copy
        count.  ``l2_lines_stored``/``l2_lines_full`` and
        ``threads_stored``/``threads_full`` do the same for L2 line
        records and thread records inside those entries.
        """
        if self._base is None:
            return dict.fromkeys(
                (
                    "checkpoints",
                    "dram_words_stored",
                    "dram_words_full",
                    "components_stored",
                    "components_total",
                    "l2_lines_stored",
                    "l2_lines_full",
                    "threads_stored",
                    "threads_full",
                ),
                0,
            )
        base = self._base
        per_ckpt_components = (
            len(base["cores"]) + len(base["l2banks"]) + len(base["mcus"]) + 1
        )
        per_ckpt_lines = sum(
            len(ways) for bank in base["l2banks"] for ways in bank["state"]["lines"]
        )
        per_ckpt_threads = sum(len(core["threads"]) for core in base["cores"])
        dram_stored = len(base["dram"])
        dram_full = len(base["dram"])
        components = per_ckpt_components
        lines = per_ckpt_lines
        threads = per_ckpt_threads
        dram_now = dict(base["dram"])
        for c in self._order[1:]:
            delta = self._deltas[c]
            dram_stored += len(delta["dram"])
            for addr, value in delta["dram"].items():
                if value is None:
                    dram_now.pop(addr, None)
                else:
                    dram_now[addr] = value
            dram_full += len(dram_now)
            cores = [rec for rec in delta["cores"] if rec is not None]
            banks = [rec for rec in delta["l2banks"] if rec is not None]
            components += (
                len(cores)
                + len(banks)
                + sum(1 for snap in delta["mcus"] if snap is not None)
                + (delta["pcie"] is not None)
            )
            lines += sum(len(rec["state"][0]) for rec in banks)
            threads += sum(
                1 for rec in cores for trec in rec[3] if trec is not None
            )
        n = len(self._order)
        return {
            "checkpoints": n,
            "dram_words_stored": dram_stored,
            "dram_words_full": dram_full,
            "components_stored": components,
            "components_total": per_ckpt_components * n,
            "l2_lines_stored": lines,
            "l2_lines_full": per_ckpt_lines * n,
            "threads_stored": threads,
            "threads_full": per_ckpt_threads * n,
        }
