"""The cell ledger: one fold of the executor event stream.

:class:`repro.obs.ProgressState` is the single per-cell state machine
every consumer reads (journal, serve counters, the pool executor's
deadline logic, ``run_campaign``).  These tests pin the machine itself,
then check real event streams against it: every cell of every chaos
scenario must walk a legal ledger path that ends ``landed`` or
``exhausted`` with the right typed ``cause`` -- stricter than "zero
malformed events".
"""

import os
import sys
import threading

import pytest

import repro.serve.service as service_mod
from repro.api import (
    CachingExecutor,
    CellFailure,
    Grid,
    ParallelExecutor,
    SerialExecutor,
    Session,
    run_campaign,
)
from repro.cluster import ClusterExecutor
from repro.obs import ProgressState
from repro.obs.progress import CAUSES, CELL_STATES, TALLIES, TRANSITIONS
from repro.resilience import RetryPolicy, SweepJournal
from repro.resilience.chaos import sigcont, sigkill, sigstop, wait_for
from repro.serve import CampaignService
from repro.system.machine import MachineConfig

CFG = MachineConfig(cores=2, threads_per_core=2, l2_banks=8, l2_sets=8)

#: ~0.3s per cell, so a fault injected at ``cell_start`` lands mid-cell.
GRID = Grid(
    components=("l2c", "mcu", "ccx"),
    benchmarks=("fft", "radi"),
    seeds=(2015,),
    mode="injection",
    n=8,
    machine=CFG,
    scale=5e-6,
)

#: A quick two-cell grid for the journal and serve checks.
SMALL = Grid(
    components=("l2c", "mcu"),
    benchmarks=("fft",),
    seeds=(2015,),
    mode="injection",
    n=2,
    machine=CFG,
    scale=5e-6,
)

NO_BACKOFF = RetryPolicy(max_attempts=3, backoff_base=0.0)


def _ev(etype, index=0, digest="d0", **fields):
    return {"type": etype, "index": index, "digest": digest,
            "label": f"cell{index}", **fields}


def _cell(ledger, index=0, digest="d0"):
    return ledger.cells[(digest, index)]


# ----------------------------------------------------------------------
# the state machine
# ----------------------------------------------------------------------
def test_transition_table_covers_every_state():
    assert set(TRANSITIONS) == set(CELL_STATES)
    for state, targets in TRANSITIONS.items():
        assert targets <= set(CELL_STATES), state
    # landed is absorbing; exhausted never re-queues
    assert TRANSITIONS["landed"] == {"landed"}
    assert "pending" not in TRANSITIONS["exhausted"]


def test_clean_cell_walks_pending_running_landed():
    ledger = ProgressState(total=1)
    cell = ledger.handle(_ev("cell_start", worker=4242))
    assert (cell.state, cell.worker, cell.cause) == ("running", 4242, None)
    assert cell.t0 is not None
    assert [c.index for c in ledger.running()] == [0]
    cell = ledger.handle(_ev("cell_done", worker=4242, records=3))
    assert cell.state == "landed" and cell.attempts == 0
    assert ledger.running() == []
    assert ledger.started == ledger.done == {0}
    assert ledger.tally["cells_done"] == 1 and ledger.tally["records"] == 3


def test_cache_hit_after_cell_done_is_an_idempotent_landing():
    ledger = ProgressState(total=1)
    for event in (_ev("cell_start"), _ev("cell_done"), _ev("cache_hit")):
        ledger.handle(event)
    assert _cell(ledger).state == "landed"
    assert ledger.illegal == 0
    assert ledger.tally["cache_hits"] == 1
    assert ledger.report()["done"] == 1


def test_landed_absorbs_a_straggler_retry():
    """A worker killed between its ``cell_done`` and its landing ack gets
    the cell re-queued; the durable result keeps it landed."""
    ledger = ProgressState()
    for event in (
        _ev("cell_start"), _ev("cell_done"),
        _ev("cell_retry", attempt=1, cause="worker_dead"),
        _ev("cache_hit"),
    ):
        ledger.handle(event)
    assert _cell(ledger).state == "landed"
    assert ledger.illegal == 0
    assert ledger.tally["retries"] == 1
    assert ledger.causes == {"worker_dead": 1}


def test_retry_then_exhaust_records_attempts_and_cause():
    ledger = ProgressState()
    ledger.handle(_ev("cell_start"))
    cell = ledger.handle(_ev("cell_retry", attempt=1, cause="exception"))
    assert (cell.state, cell.attempts, cell.cause) == (
        "pending", 1, "exception"
    )
    ledger.handle(_ev("cell_start"))
    cell = ledger.handle(_ev("cell_exhausted", attempt=2, cause="exception"))
    assert (cell.state, cell.attempts) == ("exhausted", 2)
    assert ledger.report()["exhausted"] == [0]
    assert ledger.incomplete() == {0}


def test_exhausted_cell_may_still_land_but_never_requeue():
    ledger = ProgressState()
    ledger.handle(_ev("cell_exhausted", attempt=3, cause="worker_dead"))
    ledger.handle(_ev("cell_retry", attempt=4, cause="worker_dead"))
    assert _cell(ledger).state == "exhausted" and ledger.illegal == 1
    # the cluster's local merge pass computes an abandoned cell
    ledger.handle(_ev("cell_start"))
    ledger.handle(_ev("cell_done"))
    cell = _cell(ledger)
    assert cell.state == "landed" and cell.cause == "worker_dead"
    assert ledger.report()["exhausted"] == []


def test_timeout_and_cell_error_causes():
    ledger = ProgressState()
    ledger.handle(_ev("cell_start", worker=7))
    cell = ledger.handle(
        _ev("cell_timeout", worker=7, attempt=1, timeout=1.0,
            cause="timeout")
    )
    assert (cell.state, cell.cause) == ("pending", "timeout")
    assert ledger.tally["timeouts"] == 1
    cell = ledger.handle(_ev("cell_error", index=1, digest="d1"))
    assert (cell.state, cell.cause) == ("failed", "exception")
    assert ledger.malformed == 0


def test_cells_key_on_digest_plus_index():
    ledger = ProgressState()
    ledger.handle(_ev("cell_start", index=0, digest="same"))
    ledger.handle(_ev("cell_start", index=1, digest="same"))
    ledger.handle({"type": "cell_exhausted", "index": 2, "attempt": 1})
    ledger.handle({"type": "cell_done", "digest": "only-digest"})
    assert set(ledger.cells) == {
        ("same", 0), ("same", 1), (None, 2), ("only-digest", None),
    }
    assert ledger.started == {0, 1}
    # campaign-level events touch no cell
    assert ledger.handle({"type": "worker_dead", "worker": 9}) is None
    assert ledger.tally["worker_deaths"] == 1


def test_running_returns_snapshots():
    ledger = ProgressState()
    ledger.handle(_ev("cell_start", worker=1))
    snapshot = ledger.running()[0]
    ledger.handle(_ev("cell_done"))
    assert snapshot.state == "running"


def test_tally_names_are_the_serve_counter_names():
    ledger = ProgressState()
    assert set(ledger.tally) == set(TALLIES.values()) | {"records"}


def test_concurrent_folds_lose_no_update():
    """A pool's drain thread and its coordinator fold into one ledger."""
    ledger = ProgressState()
    n_threads, per_thread = 8, 200

    def fold(t):
        for i in range(per_thread):
            index = t * per_thread + i
            ledger.handle(_ev("cell_start", index, f"d{index}", worker=t))
            ledger.running()
            ledger.handle(_ev("cell_done", index, f"d{index}", worker=t,
                              records=1))

    threads = [threading.Thread(target=fold, args=(t,))
               for t in range(n_threads)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    total = n_threads * per_thread
    assert len(ledger.done) == len(ledger.started) == total
    assert ledger.tally["cells_done"] == ledger.tally["records"] == total
    assert ledger.running() == []


# ----------------------------------------------------------------------
# conformance: real event streams walk legal ledger paths
# ----------------------------------------------------------------------
def _paths(events):
    """Replay ``events`` cell by cell through fresh ledgers; returns
    ``{key: (path of states, final cell)}``."""
    by_cell: dict = {}
    for event in events:
        if event.get("type") in ("cell_start", "cell_done", "cache_hit",
                                 "cell_retry", "cell_timeout",
                                 "cell_exhausted", "cell_error"):
            key = (event.get("digest"), event.get("index"))
            by_cell.setdefault(key, []).append(event)
    out = {}
    for key, stream in by_cell.items():
        ledger = ProgressState()
        path = ["pending"]
        for event in stream:
            path.append(ledger.handle(event).state)
        assert ledger.illegal == 0, (key, [e["type"] for e in stream])
        out[key] = (path, ledger.cells[key])
    return out


def _assert_conformant(events, ends=("landed", "exhausted")):
    paths = _paths(events)
    assert paths, "the scenario produced no cell events"
    for key, (path, cell) in paths.items():
        for before, after in zip(path, path[1:]):
            assert after in TRANSITIONS[before], (key, path)
        assert path[-1] in ends, (key, path)
        assert cell.cause is None or cell.cause in CAUSES
    for event in events:
        if event["type"] in ("cell_retry", "cell_timeout", "cell_exhausted"):
            assert event.get("cause") in CAUSES, event
    return paths


def _causes(paths):
    return {cell.cause for _path, cell in paths.values()}


class _RaisingSession(Session):
    """Every run of ``bad_digest`` raises."""

    def __init__(self, bad_digest):
        super().__init__()
        self.bad_digest = bad_digest

    def run(self, spec):
        if spec.digest() == self.bad_digest:
            raise RuntimeError("simulated core died")
        return super().run(spec)


def test_serial_cell_raising_until_exhausted_conforms():
    specs = SMALL.specs()
    events = []
    executor = SerialExecutor(
        _RaisingSession(specs[1].digest()), retry=NO_BACKOFF
    )
    with pytest.raises(CellFailure) as excinfo:
        executor.run(specs, on_event=events.append)
    assert excinfo.value.cause == "exception"
    paths = _assert_conformant(events)
    good, bad = (specs[0].digest(), 0), (specs[1].digest(), 1)
    assert paths[good][0][-1] == "landed" and paths[good][1].cause is None
    path, cell = paths[bad]
    assert path == ["pending", "running", "pending", "running", "pending",
                    "running", "exhausted"]
    assert (cell.cause, cell.attempts) == ("exception", 3)


def test_parallel_sigkilled_worker_with_retry_conforms():
    specs = GRID.specs()
    events, killed = [], []

    def on_event(event):
        events.append(event)
        if event["type"] == "cell_start" and not killed:
            killed.append(event["worker"])
            sigkill(event["worker"])

    ParallelExecutor(workers=2, retry=NO_BACKOFF).run(
        specs, on_event=on_event
    )
    assert killed
    paths = _assert_conformant(events, ends=("landed",))
    assert len(paths) == len(specs)
    assert "worker_dead" in _causes(paths)
    assert {c for c in _causes(paths) if c} == {"worker_dead"}


def test_parallel_deadline_kill_conforms():
    specs = GRID.specs()
    events, frozen = [], []

    def on_event(event):
        events.append(event)
        if event["type"] == "cell_start" and not frozen:
            frozen.append(event["worker"])
            sigstop(event["worker"])

    policy = RetryPolicy(max_attempts=5, backoff_base=0.0, cell_timeout=1.5)
    try:
        ParallelExecutor(workers=2, retry=policy).run(
            specs, on_event=on_event
        )
    finally:
        for pid in frozen:
            sigcont(pid)
    paths = _assert_conformant(events, ends=("landed",))
    timed_out = [
        key for key, (_path, cell) in paths.items() if cell.cause == "timeout"
    ]
    assert timed_out, "no cell carried the timeout cause"
    timeout_events = [e for e in events if e["type"] == "cell_timeout"]
    assert all(e["cause"] == "timeout" for e in timeout_events)


def test_cluster_worker_kill_conforms(tmp_path):
    specs = GRID.specs()
    events, killed = [], []

    def on_event(event):
        events.append(event)
        if event["type"] == "cell_done" and not killed and event.get("worker"):
            killed.append(event["worker"])
            sigkill(event["worker"])

    executor = ClusterExecutor(
        workers=2,
        cache_dir=tmp_path / "bus",
        heartbeat_interval=0.2,
        retry=RetryPolicy(max_attempts=5, backoff_base=0.0),
    )
    executor.run(specs, on_event=on_event)
    assert killed and executor.last_worker_deaths == 1
    paths = _assert_conformant(events, ends=("landed",))
    assert len(paths) == len(specs)
    retried = [e for e in events if e["type"] == "cell_retry"]
    assert retried and all(e["cause"] == "worker_dead" for e in retried)
    assert any(e["type"] == "worker_dead" for e in events)


# ----------------------------------------------------------------------
# readers of the ledger
# ----------------------------------------------------------------------
def _journal_states(directory):
    return {
        cell["digest"]: cell["state"]
        for cell in SweepJournal.load(directory).cells
    }


def _ledger_states(ledger, specs):
    by_digest = {cell.digest: cell.state for cell in ledger.cells.values()}
    return {spec.digest(): by_digest.get(spec.digest(), "pending")
            for spec in specs}


def test_journal_manifest_equals_ledger_states_at_the_end(tmp_path):
    specs = SMALL.specs()
    journal = SweepJournal.create(tmp_path / "j", SMALL.to_dict(), specs)
    outcome = run_campaign(
        CachingExecutor(journal.bus_path(), SerialExecutor()),
        specs, journal=journal,
    )
    assert outcome.status == "done" and not outcome.worker_dead
    states = _journal_states(journal.directory)
    assert set(states.values()) == {"landed"}
    assert states == _ledger_states(outcome.ledger, specs)


def test_journal_manifest_equals_ledger_states_after_exhaustion(tmp_path):
    specs = SMALL.specs()
    journal = SweepJournal.create(tmp_path / "j", SMALL.to_dict(), specs)
    executor = CachingExecutor(
        journal.bus_path(),
        SerialExecutor(_RaisingSession(specs[0].digest()), retry=NO_BACKOFF),
    )
    outcome = run_campaign(executor, specs, journal=journal)
    assert outcome.status == "failed"
    assert outcome.failure.cause == "exception"
    assert not outcome.worker_dead
    states = _journal_states(journal.directory)
    assert states[specs[0].digest()] == "exhausted"
    assert states == _ledger_states(outcome.ledger, specs)
    manifest = SweepJournal.load(journal.directory).cells[0]
    assert manifest["attempts"] == 3


def test_run_campaign_reports_interrupts(tmp_path):
    stop = threading.Event()
    stop.set()
    outcome = run_campaign(SerialExecutor(), SMALL.specs(), stop=stop)
    assert outcome.status == "interrupted"
    assert outcome.results is None and outcome.failure.done == 0


def _capture_outcomes(monkeypatch, on_event=None):
    outcomes = []
    real = service_mod.run_campaign

    def capturing(executor, specs, **kwargs):
        if on_event is not None:
            kwargs["on_event"] = on_event
        outcome = real(executor, specs, **kwargs)
        outcomes.append(outcome)
        return outcome

    monkeypatch.setattr(service_mod, "run_campaign", capturing)
    return outcomes


def _run_job(service, grid, status="done"):
    job, _ = service.submit({"grid": grid.to_dict()}, client="t")
    assert wait_for(
        lambda: service.job(job.id).status == status, timeout=120.0
    ), service.job(job.id).status
    return job


def test_serve_stats_cell_counters_equal_the_job_ledgers(
    tmp_path, monkeypatch
):
    outcomes = _capture_outcomes(monkeypatch)
    service = CampaignService(tmp_path / "state", fsck_on_start=False)
    service.start()
    try:
        _run_job(service, SMALL)
        counters = service.stats()["counters"]
        assert {k: counters[k] for k in outcomes[0].ledger.tally} == (
            outcomes[0].ledger.tally
        )
        assert counters["cells_done"] == len(SMALL.specs())
        # a second job adds its own ledger's totals
        grid = Grid.from_dict({**SMALL.to_dict(), "n": 3})
        _run_job(service, grid)
        counters = service.stats()["counters"]
        for name in outcomes[0].ledger.tally:
            assert counters[name] == sum(
                o.ledger.tally[name] for o in outcomes
            ), name
    finally:
        service.close(timeout=30.0)


@pytest.mark.parametrize("always", [False, True])
def test_serve_raising_cell_mentioning_died_does_not_fsck(
    tmp_path, always
):
    """A cell whose exception text says "died" is an ``exception``
    cause, not a dead worker: no bus fsck, whether it recovers on retry
    or exhausts the default two attempts."""
    service = CampaignService(tmp_path / "state", fsck_on_start=False)
    original = service.session.run
    bad = SMALL.specs()[0].digest()
    calls = {"n": 0}

    def flaky(spec):
        if spec.digest() == bad and (always or calls["n"] == 0):
            calls["n"] += 1
            raise RuntimeError("simulated core died")
        return original(spec)

    service.session.run = flaky
    service.start()
    try:
        job = _run_job(service, SMALL, "failed" if always else "done")
        if always:
            assert "simulated core died" in service.job(job.id).error
        counters = service.stats()["counters"]
        assert counters["retries"] == 1
        assert counters["fsck_runs"] == 0
    finally:
        service.close(timeout=30.0)


def test_serve_sigkilled_pool_worker_still_fscks(tmp_path, monkeypatch):
    killed = []

    def kill_first(event):
        if (
            event["type"] == "cell_start"
            and not killed
            and event.get("worker") not in (None, os.getpid())
        ):
            killed.append(event["worker"])
            sigkill(event["worker"])

    outcomes = _capture_outcomes(monkeypatch, on_event=kill_first)
    service = CampaignService(
        tmp_path / "state", workers=2, fsck_on_start=False,
        retry=NO_BACKOFF,
    )
    service.start()
    try:
        _run_job(service, GRID)
        assert killed
        assert outcomes[0].worker_dead
        assert wait_for(
            lambda: service.stats()["counters"]["fsck_runs"] >= 1,
            timeout=10.0,
        )
    finally:
        service.close(timeout=30.0)


def test_cli_summary_names_each_unfinished_cells_cause(capsys):
    from argparse import Namespace

    from repro.cli import _SweepObserver

    observer = _SweepObserver(
        Namespace(progress=False, trace_out=None, obs_out=None), total=3
    )
    for event in (
        _ev("cell_start", 0),
        _ev("cell_exhausted", 0, attempt=2, cause="timeout"),
        _ev("cell_start", 1, "d1"),
        _ev("cell_start", 2, "d2"),
        _ev("cell_done", 2, "d2"),
    ):
        observer.state.handle(event)
    observer.finish()
    out = capsys.readouterr().out
    assert "2 cells started but never finished: 0 exhausted (timeout), " \
        "1 running" in out
    assert "may have died" not in out
    assert observer.state.report()["incomplete"] == [0, 1]
