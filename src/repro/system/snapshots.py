"""Delta snapshot chains: checkpoint storage that scales with churn.

The mixed-mode platform checkpoints the whole machine every Cf cycles
(paper: 2M) so injection runs can restore near their injection point.
Full snapshots copy all of DRAM, the store log and every component every
time; at larger scales they dominate the platform's memory (the
ROADMAP's "shard the golden-run snapshots" item).

A :class:`SnapshotChain` stores the **first** checkpoint in full and
every later one as a delta: the DRAM words written since the previous
checkpoint (dirty-word tracking in :class:`repro.mem.dram.Dram`), the
store-log entries touched, and -- via per-component dirty flags -- only
the components whose architected state changed.  Halted cores, idle
banks and a finished PCIe engine cost nothing per checkpoint.

The chain quacks like the ``dict[int, dict]`` it replaces (a read-only
mapping from checkpoint cycle to a full machine snapshot); materialized
snapshots are bit-identical to what ``Machine.snapshot()`` would have
returned at the same cycle, which the delta-snapshot tests assert.

Every capture goes through the machine's snapshot entry points, so
stored state is always the exact architected state at a cycle boundary,
and restoring a chain entry into either engine resumes bit-identically.
Chains captured by different engines are interchangeable.
"""

from __future__ import annotations

from collections.abc import Mapping


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
        l2banks = list(base["l2banks"])
        mcus = list(base["mcus"])
        pcie = base["pcie"]
        #: per-core: (latest partial record, merged L1 index overrides)
        core_folds: list = [None] * len(base["cores"])
        deltas = [self._deltas[c] for c in self._order[anchor_idx + 1 : idx + 1]]
        if cycle is None:
            deltas.append(self._halt)
        for delta in deltas:
            for addr, value in delta["dram"].items():
                if value is None:
                    dram.pop(addr, None)
                else:
                    dram[addr] = value
            store_log.update(delta["store_log"])
            for i, rec in enumerate(delta["cores"]):
                if rec is None:
                    continue
                fold = core_folds[i]
                if fold is None:
                    core_folds[i] = [rec, dict(rec["l1_delta"])]
                else:
                    fold[0] = rec
                    fold[1].update(rec["l1_delta"])
            for i, snap in enumerate(delta["l2banks"]):
                if snap is not None:
                    l2banks[i] = snap
            for i, snap in enumerate(delta["mcus"]):
                if snap is not None:
                    mcus[i] = snap
            if delta["pcie"] is not None:
                pcie = delta["pcie"]
        cores = []
        for i, fold in enumerate(core_folds):
            base_core = base["cores"][i]
            if fold is None:
                cores.append(base_core)
                continue
            rec, l1_overrides = fold
            tags = list(base_core["l1_tags"])
            vals = list(base_core["l1_vals"])
            for l1_idx, (tag, val) in l1_overrides.items():
                tags[l1_idx] = tag
                vals[l1_idx] = val
            cores.append(
                {
                    "rr": rec["rr"],
                    "l1_tags": tags,
                    "l1_vals": vals,
                    "dropped_cpx": rec["dropped_cpx"],
                    "invalidations": rec["invalidations"],
                    "threads": rec["threads"],
                }
            )
        last = deltas[-1]
        return {
            "cycle": last["cycle"],
            "dram": dram,
            "output": last["output"],
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
        snapshot entries actually kept vs. the full-copy count.
        """
        if self._base is None:
            return {
                "checkpoints": 0,
                "dram_words_stored": 0,
                "dram_words_full": 0,
                "components_stored": 0,
                "components_total": 0,
            }
        base = self._base
        per_ckpt_components = (
            len(base["cores"]) + len(base["l2banks"]) + len(base["mcus"]) + 1
        )
        dram_stored = len(base["dram"])
        dram_full = len(base["dram"])
        components = per_ckpt_components
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
            components += sum(
                1
                for snap in (
                    delta["cores"] + delta["l2banks"] + delta["mcus"]
                    + [delta["pcie"]]
                )
                if snap is not None
            )
        return {
            "checkpoints": len(self._order),
            "dram_words_stored": dram_stored,
            "dram_words_full": dram_full,
            "components_stored": components,
            "components_total": per_ckpt_components * len(self._order),
        }
