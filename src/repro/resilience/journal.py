"""The crash-safe sweep journal: durable sweep *intent* plus per-cell
progress, so a killed coordinator costs only the unlanded cells.

The result bus (the content-addressed ``CachingExecutor`` directory)
already makes landed cells durable -- workers rename canonical result
JSON into it atomically, and a warm bus replays as byte-identical cache
hits.  What the bus cannot answer is *what the sweep was*: which grid,
in which order, and how far it got.  The journal records exactly that:

* ``repro sweep --journal DIR`` writes ``DIR/journal.json`` before the
  first cell runs: the full grid description (the same dict the sweep
  JSON embeds), the digest-keyed cell list in reporting order, and a
  per-cell state persisted from the executor event stream's cell
  ledger (:class:`repro.obs.ProgressState`) as results land.
* Every write is atomic (``repro.utils.atomic.write_atomic``, the same
  discipline as the result bus), so a SIGKILL at any instant leaves
  either the previous or the next journal -- never a torn one.
* ``repro sweep --resume DIR`` rebuilds the grid from the journal,
  reconciles cell states against the bus (the bus is authoritative: a
  coordinator killed between a worker's rename and the journal flush
  under-reports, never over-reports), and re-runs the sweep against the
  same bus -- landed cells are byte-identical cache hits, only unlanded
  cells recompute, and the output is byte-identical to an uninterrupted
  run because first-landed-digest-wins made landing idempotent.

Digest-neutrality: the journal is operational state *about* a sweep,
never part of one.  Nothing here enters spec digests, cache keys, or
canonical result bytes.
"""

from __future__ import annotations

import json
import time
from pathlib import Path

from repro.obs.progress import ProgressState
from repro.utils.atomic import write_atomic

#: Bump when the journal layout changes incompatibly.
JOURNAL_VERSION = 1

#: The manifest file name inside a journal directory.
JOURNAL_NAME = "journal.json"

#: Default result-bus subdirectory for journals that own their bus.
DEFAULT_BUS_NAME = "bus"

#: The durable subset of the ledger's cell states.  ``pending`` cells
#: have no durable result; ``landed`` cells are in the bus; ``failed``
#: cells raised (and may later land via a retry); ``exhausted`` cells
#: spent their attempt budget (the cluster's local merge pass still
#: computes them, after which they land).
CELL_STATES = ("pending", "landed", "failed", "exhausted")


def journal_path(directory: "str | Path") -> Path:
    """Where the manifest lives inside a journal directory."""
    return Path(directory) / JOURNAL_NAME


class SweepJournal:
    """The on-disk manifest of one sweep campaign.

    One instance wraps one journal directory.  Mutators keep the
    in-memory state and the file in sync (:meth:`handle_event` flushes
    on every state transition -- journal writes are one small JSON file,
    orders of magnitude cheaper than a cell).
    """

    def __init__(
        self,
        directory: "str | Path",
        grid: dict,
        cells: "list[dict]",
        bus: str,
        created: "float | None" = None,
    ) -> None:
        self.directory = Path(directory)
        self.grid = grid
        self.cells = cells
        self.bus = bus
        self.created = created if created is not None else round(time.time(), 6)
        self._by_digest = {cell["digest"]: cell for cell in cells}
        #: what :meth:`handle_event` folds through (``run_campaign``
        #: records its own ledger's cells instead)
        self.ledger = ProgressState(total=len(cells))

    # ------------------------------------------------------------------
    # construction / loading
    # ------------------------------------------------------------------
    @classmethod
    def create(
        cls,
        directory: "str | Path",
        grid: dict,
        specs,
        bus: "str | Path | None" = None,
    ) -> "SweepJournal":
        """Start a journal for ``specs`` (reporting order) under
        ``directory`` and durably write the initial all-pending state.

        ``bus`` names the result-bus directory; ``None`` places it
        inside the journal directory (``DIR/bus``), recorded relative
        so the journal directory can be moved as a unit.
        """
        cells = [
            {
                "digest": spec.digest(),
                "label": spec.label(),
                "state": "pending",
                "attempts": 0,
            }
            for spec in specs
        ]
        bus_text = DEFAULT_BUS_NAME if bus is None else str(bus)
        journal = cls(directory, grid, cells, bus_text)
        journal.directory.mkdir(parents=True, exist_ok=True)
        journal.bus_path().mkdir(parents=True, exist_ok=True)
        journal.flush()
        return journal

    @classmethod
    def load(cls, directory: "str | Path") -> "SweepJournal":
        """Load an existing journal (raises ``FileNotFoundError`` when
        the directory holds none, ``ValueError`` when it is unreadable
        -- a torn write is impossible by construction, so a corrupt
        manifest means external damage and deserves a loud error)."""
        path = journal_path(directory)
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError as exc:
            raise ValueError(f"corrupt sweep journal {path}: {exc}") from exc
        if not isinstance(data, dict) or "cells" not in data or "grid" not in data:
            raise ValueError(f"corrupt sweep journal {path}: not a manifest")
        version = data.get("journal_version")
        if version != JOURNAL_VERSION:
            raise ValueError(
                f"sweep journal {path} has version {version!r}; this build "
                f"speaks {JOURNAL_VERSION}"
            )
        return cls(
            directory,
            data["grid"],
            data["cells"],
            data.get("bus", DEFAULT_BUS_NAME),
            created=data.get("created"),
        )

    # ------------------------------------------------------------------
    # views
    # ------------------------------------------------------------------
    def bus_path(self) -> Path:
        """The result-bus directory (relative entries resolve against
        the journal directory)."""
        bus = Path(self.bus)
        return bus if bus.is_absolute() else self.directory / bus

    def to_grid(self):
        """Rebuild the :class:`~repro.api.grid.Grid` this journal
        recorded, exactly as the original sweep composed it."""
        from repro.api.grid import Grid

        grid = self.grid
        # reject sloppy manifests loudly: a grid-form journal must name
        # its dimensions (Grid.from_dict would silently default them)
        for key in ("components", "benchmarks", "seeds", "mode", "n",
                    "machine", "scale"):
            if key not in grid:
                raise KeyError(key)
        return Grid.from_dict(grid)

    def matches(self, specs) -> bool:
        """Whether ``specs`` (in order) are exactly the journaled cells."""
        return [cell["digest"] for cell in self.cells] == [
            spec.digest() for spec in specs
        ]

    def counts(self) -> dict:
        """Cells per state (always includes every known state)."""
        out = {state: 0 for state in CELL_STATES}
        for cell in self.cells:
            state = cell.get("state", "pending")
            out[state] = out.get(state, 0) + 1
        return out

    def unlanded(self) -> "list[int]":
        """Indices (reporting order) of cells with no durable result."""
        return [
            i for i, cell in enumerate(self.cells) if cell["state"] != "landed"
        ]

    # ------------------------------------------------------------------
    # mutation
    # ------------------------------------------------------------------
    def handle_event(self, event: dict) -> None:
        """Fold one executor ``on_event`` record through the journal's
        own cell ledger and persist the cell it moved."""
        self.record(self.ledger.handle(event))

    def record(self, cell) -> None:
        """Persist one ledger :class:`~repro.obs.progress.Cell`'s state
        and attempts, flushing on change.  ``running`` is not durable (a
        cell mid-attempt has no result), so the manifest keeps the last
        durable state; digests outside the journal are ignored."""
        entry = self._by_digest.get(cell.digest) if cell is not None else None
        if entry is None or cell.state not in CELL_STATES:
            return
        attempts = cell.attempts or entry.get("attempts", 0)
        if (entry["state"], entry.get("attempts")) != (cell.state, attempts):
            entry["state"], entry["attempts"] = cell.state, attempts
            self.flush()

    def reconcile(self, specs) -> int:
        """Trust the bus over the journal: mark every cell whose valid
        canonical result is already on the bus as landed (a coordinator
        killed after a worker's atomic rename but before the journal
        flush under-reports).  Returns how many cells flipped."""
        from repro.api.executor import load_cached_result, result_cache_path

        bus = self.bus_path()
        flipped = 0
        for spec in specs:
            digest = spec.digest()
            cell = self._by_digest.get(digest)
            if cell is None or cell["state"] == "landed":
                continue
            cached, _stale = load_cached_result(
                result_cache_path(bus, spec), spec
            )
            if cached is not None:
                cell["state"] = "landed"
                flipped += 1
        if flipped:
            self.flush()
        return flipped

    # ------------------------------------------------------------------
    # persistence
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "journal_version": JOURNAL_VERSION,
            "created": self.created,
            "grid": self.grid,
            "bus": self.bus,
            "cells": self.cells,
        }

    def flush(self) -> None:
        """Atomically publish the manifest (write-then-rename with a
        unique temp name, the result-bus discipline: a SIGKILL mid-write
        leaves the previous manifest intact)."""
        blob = json.dumps(
            self.to_dict(), sort_keys=True, separators=(",", ":")
        )
        write_atomic(journal_path(self.directory), blob + "\n")
