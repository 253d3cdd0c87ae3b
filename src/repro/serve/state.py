"""Durable job state for the serve daemon: requests in, journals out.

A *job* is one submitted campaign -- a grid or an explicit spec list --
identified by the blake2b digest of its normalized request, so
resubmitting the same campaign (any key order, whitespace, or client)
attaches to the existing job instead of duplicating work.  Each job
owns a directory under ``STATE/jobs/<id>/`` holding:

* ``job.json`` -- the job manifest (status, counters, timestamps),
  written atomically with the result-bus rename discipline.
* ``journal.json`` -- a standard :class:`repro.resilience.SweepJournal`
  over the job's cells, pointed at the daemon's shared result bus.

That layering is the crash-safety story: a SIGKILLed daemon loses only
in-memory queue order.  On restart the store reloads every manifest,
re-enqueues ``queued``/``running`` jobs (their journals reconcile
against the bus, so landed cells replay as byte-identical cache hits),
and ``done`` jobs re-serve their results straight from the bus.

Digest-neutrality: job ids, statuses and counters are operational
state *about* campaigns; none of it enters spec digests, cache keys,
or canonical result bytes.
"""

from __future__ import annotations

import hashlib
import json
import time
from pathlib import Path

from repro.api.grid import Grid
from repro.api.result import dumps_canonical
from repro.api.spec import ExperimentSpec
from repro.resilience import SweepJournal
from repro.utils.atomic import write_atomic

#: Bump when the job manifest layout changes incompatibly.
JOB_VERSION = 1

#: The job state machine.  ``queued`` and ``running`` jobs re-enqueue
#: after a daemon restart; ``done`` jobs serve results from the bus;
#: ``failed``/``cancelled`` jobs stay inspectable and may be
#: resubmitted (the resubmission resets them to ``queued``).
JOB_STATES = ("queued", "running", "done", "failed", "cancelled")


def normalize_request(request: dict) -> "tuple[dict, list[ExperimentSpec]]":
    """Validate one submission and pin down its canonical identity.

    Accepted shapes (mutually exclusive):

    * ``{"grid": {...}}`` -- a :meth:`Grid.to_dict` description; cells
      expand in reporting order exactly like ``repro sweep``.
    * ``{"spec": {...}}`` / ``{"specs": [...]}`` -- explicit canonical
      spec dicts, run in the given order.

    Returns ``(grid_payload, specs)`` where ``grid_payload`` is the
    normalized grid description embedded in the job's journal and in
    the result JSON (for grid submissions it is ``Grid.to_dict()`` of
    the parsed grid, so key order and defaults never change identity).
    Raises ``ValueError`` for anything malformed.
    """
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    keys = [k for k in ("grid", "spec", "specs") if k in request]
    if len(keys) != 1:
        raise ValueError(
            "request must carry exactly one of 'grid', 'spec', 'specs'"
        )
    kind = keys[0]
    try:
        if kind == "grid":
            if not isinstance(request["grid"], dict):
                raise ValueError("'grid' must be an object")
            grid = Grid.from_dict(request["grid"])
            specs = grid.specs()
            payload = grid.to_dict()
        else:
            raw = [request["spec"]] if kind == "spec" else request["specs"]
            if not isinstance(raw, list) or not all(
                isinstance(d, dict) for d in raw
            ):
                raise ValueError("'specs' must be a list of objects")
            specs = [ExperimentSpec.from_dict(d) for d in raw]
            payload = {"specs": [spec.to_dict() for spec in specs]}
    except ValueError:
        raise
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed {kind} request: {exc}") from exc
    if not specs:
        raise ValueError("request expands to zero valid cells")
    return payload, specs


def job_id_for(grid_payload: dict) -> str:
    """The content-addressed job identity: a short blake2b digest of
    the canonical normalized request, so identical campaigns dedupe."""
    blob = dumps_canonical(grid_payload).encode("utf-8")
    return hashlib.blake2b(blob, digest_size=8).hexdigest()


class Job:
    """One submitted campaign: in-memory handle + persisted manifest."""

    __slots__ = (
        "id", "grid", "status", "client", "cells", "created", "started",
        "finished", "error", "hits", "misses", "stale", "run_seconds",
        "resumes",
    )

    def __init__(
        self,
        job_id: str,
        grid: dict,
        cells: int,
        client: "str | None" = None,
        created: "float | None" = None,
    ) -> None:
        self.id = job_id
        self.grid = grid
        self.status = "queued"
        self.client = client
        self.cells = cells
        self.created = created if created is not None else round(time.time(), 6)
        self.started: "float | None" = None
        self.finished: "float | None" = None
        self.error: "str | None" = None
        #: cache tally of the *latest* run attempt: after a crash-resume,
        #: ``hits >= cells landed before the crash`` is the observable
        #: proof that only unlanded cells recomputed.
        self.hits = 0
        self.misses = 0
        self.stale = 0
        self.run_seconds: "float | None" = None
        #: how many times this job re-entered the queue (daemon
        #: restarts, drains) -- purely diagnostic.
        self.resumes = 0

    def to_dict(self) -> dict:
        return {
            "job_version": JOB_VERSION,
            "id": self.id,
            "grid": self.grid,
            "status": self.status,
            "client": self.client,
            "cells": self.cells,
            "created": self.created,
            "started": self.started,
            "finished": self.finished,
            "error": self.error,
            "hits": self.hits,
            "misses": self.misses,
            "stale": self.stale,
            "run_seconds": self.run_seconds,
            "resumes": self.resumes,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "Job":
        version = data.get("job_version")
        if version != JOB_VERSION:
            raise ValueError(
                f"job manifest version {version!r}; this build speaks "
                f"{JOB_VERSION}"
            )
        job = cls(
            data["id"], data["grid"], data["cells"],
            client=data.get("client"), created=data.get("created"),
        )
        status = data.get("status", "queued")
        if status not in JOB_STATES:
            raise ValueError(f"unknown job status {status!r}")
        job.status = status
        job.started = data.get("started")
        job.finished = data.get("finished")
        job.error = data.get("error")
        job.hits = data.get("hits", 0)
        job.misses = data.get("misses", 0)
        job.stale = data.get("stale", 0)
        job.run_seconds = data.get("run_seconds")
        job.resumes = data.get("resumes", 0)
        return job

    def specs(self) -> list[ExperimentSpec]:
        """Rebuild the job's cells in reporting order."""
        if "specs" in self.grid:
            return [ExperimentSpec.from_dict(d) for d in self.grid["specs"]]
        return Grid.from_dict(self.grid).specs()


class JobStore:
    """The on-disk registry of jobs under ``STATE/jobs/``.

    Pure persistence -- locking, queueing and admission live in
    :class:`repro.serve.service.CampaignService`.  Every manifest write
    is atomic (:func:`~repro.utils.atomic.write_atomic`), so a SIGKILL
    at any instant leaves the previous or the next manifest, never a
    torn one.
    """

    def __init__(self, root: "str | Path", bus: "str | Path") -> None:
        self.root = Path(root)
        self.bus = Path(bus)
        self.jobs: dict[str, Job] = {}

    # ------------------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        return self.root / job_id

    def create(
        self, job_id: str, grid: dict, specs, client: "str | None" = None
    ) -> Job:
        """Persist a new job: manifest plus an all-pending journal
        pointing at the shared bus (recorded absolute, because the bus
        outlives and is shared across job directories)."""
        job = Job(job_id, grid, len(specs), client=client)
        SweepJournal.create(
            self.job_dir(job_id), grid, specs, bus=self.bus.resolve()
        )
        self.save(job)
        self.jobs[job_id] = job
        return job

    def save(self, job: Job) -> None:
        blob = json.dumps(job.to_dict(), sort_keys=True, separators=(",", ":"))
        write_atomic(self.job_dir(job.id) / "job.json", blob + "\n")

    def journal(self, job: Job) -> SweepJournal:
        return SweepJournal.load(self.job_dir(job.id))

    # ------------------------------------------------------------------
    def load_all(self) -> "list[str]":
        """Reload every persisted job (daemon restart).  Returns the
        names of job directories that failed to load -- damaged
        manifests are skipped loudly, never fatal, so one corrupted job
        cannot keep the daemon down."""
        self.jobs.clear()
        damaged: list[str] = []
        if not self.root.is_dir():
            return damaged
        for entry in sorted(self.root.iterdir()):
            manifest = entry / "job.json"
            if not manifest.is_file():
                continue
            try:
                job = Job.from_dict(json.loads(manifest.read_text()))
            except (ValueError, KeyError, OSError):
                damaged.append(entry.name)
                continue
            self.jobs[job.id] = job
        return damaged

    def recoverable(self) -> list[Job]:
        """Jobs that must re-enter the queue after a restart, oldest
        first: ``queued`` jobs never ran, ``running`` jobs were cut off
        mid-flight (their journals know which cells already landed)."""
        return sorted(
            (
                job for job in self.jobs.values()
                if job.status in ("queued", "running")
            ),
            key=lambda job: job.created,
        )
