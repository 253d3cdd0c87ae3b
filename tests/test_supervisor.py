"""The cell supervisor: one attempt/backoff/deadline policy for every
executor backend.

The unit tests drive :class:`repro.resilience.supervisor.CellSupervisor`
with an injected clock and no subprocesses; the rest check the backends
that delegate to it (serial exhaustion, the worker's typed
``cell_error``, and a pooled cluster agent whose inner pool worker is
SIGKILLed).
"""

import io
import sys
import threading

import pytest

from repro.api import (
    CachingExecutor,
    CellFailure,
    Grid,
    SerialExecutor,
    Session,
    dumps_canonical,
    shard_by_digest,
)
from repro.cluster import ClusterExecutor, LocalLauncher
from repro.cluster.protocol import dumps_line, parse_line, shard_message
from repro.cluster.worker import run_worker
from repro.obs import ProgressState
from repro.obs.progress import TRANSITIONS
from repro.resilience import RetryPolicy
from repro.resilience.chaos import sigkill
from repro.resilience.supervisor import CellSupervisor
from repro.system.machine import MachineConfig

CFG = MachineConfig(cores=2, threads_per_core=2, l2_banks=8, l2_sets=8)

SMALL = Grid(
    components=("l2c", "mcu", "ccx"),
    benchmarks=("fft",),
    seeds=(2015,),
    mode="injection",
    n=2,
    machine=CFG,
    scale=5e-6,
)

#: ~0.3s per cell, so a kill injected at ``cell_start`` lands mid-cell.
GRID = Grid(
    components=("l2c", "mcu", "ccx"),
    benchmarks=("fft", "radi"),
    seeds=(2015,),
    mode="injection",
    n=8,
    machine=CFG,
    scale=5e-6,
)


class _Clock:
    def __init__(self):
        self.now = 100.0
        self.slept = []

    def __call__(self):
        return self.now

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now += seconds


def _supervisor(retry, specs=None):
    clock, events = _Clock(), []
    sup = CellSupervisor(
        specs if specs is not None else SMALL.specs(), retry, events.append,
        clock=clock, sleep=clock.sleep,
    )
    return sup, clock, events


def _start(sup, index, worker=4242):
    sup.emit({
        "type": "cell_start", "index": index, "digest": sup.digests[index],
        "label": sup.labels[index], "total": len(sup.digests),
        "worker": worker, "t": 0.0,
    })


def _kinds(events):
    return [(e["type"], e["index"], e.get("attempt"), e.get("cause"))
            for e in events if e["type"] != "cell_start"]


# ----------------------------------------------------------------------
# billing
# ----------------------------------------------------------------------
def test_billing_order_and_attempt_numbers():
    sup, _clock, events = _supervisor(
        RetryPolicy(max_attempts=3, backoff_base=0.0)
    )
    assert sup.fail(1, "boom", "exception")
    # billed and not yet re-dispatched: a second observer costs nothing
    assert not sup.fail(1, "boom again", "worker_dead")
    assert sup.ready() == [1]
    assert sup.fail(1, "boom", "worker_dead")
    assert sup.ready() == [1]
    assert not sup.fail(1, "boom", "exception")
    assert _kinds(events) == [
        ("cell_retry", 1, 1, "exception"),
        ("cell_retry", 1, 2, "worker_dead"),
        ("cell_exhausted", 1, 3, "exception"),
    ]
    assert sup.attempts == [0, 3, 0]
    assert sup.ledger.cells[(sup.digests[1], 1)].attempts == 3


def test_backoff_schedule_is_digest_derived():
    policy = RetryPolicy(
        max_attempts=4, backoff_base=1.0, backoff_factor=2.0, jitter=0.5
    )
    sup, clock, events = _supervisor(policy)
    for attempt in (1, 2, 3):
        assert sup.fail(0, "boom")
        delay = policy.backoff(sup.digests[0], attempt)
        assert events[-1]["delay"] == round(delay, 6)
        assert sup.waiting() and sup.holds(0)
        clock.now += delay * 0.99
        assert sup.ready() == []  # still backing off
        clock.now += delay * 0.01
        assert sup.ready() == [0]
        assert not sup.waiting()
    # the schedule is a pure function of (digest, attempt)
    other, _, other_events = _supervisor(policy)
    other.fail(1, "boom")
    assert other_events[-1]["delay"] == round(
        policy.backoff(other.digests[1], 1), 6
    )
    assert other_events[-1]["delay"] != events[0]["delay"]


def test_ready_block_sleeps_until_the_earliest_cell_is_due():
    policy = RetryPolicy(max_attempts=3, backoff_base=2.0, jitter=0.0)
    sup, clock, _events = _supervisor(policy)
    sup.fail(2, "boom")
    clock.now += 0.5
    sup.fail(0, "boom")
    assert sup.ready(block=True) == [2]
    assert clock.slept == [1.5]
    assert sup.ready(block=True) == [0]


def test_exhaustion_builds_the_cell_failure():
    sup, _clock, events = _supervisor(
        RetryPolicy(max_attempts=2, backoff_base=0.0)
    )
    for index in (2, 1):
        sup.fail(index, "its pool worker died", "worker_dead")
        sup.ready()
        sup.fail(index, "its pool worker died", "worker_dead")
    failure = sup.failures[1]
    assert isinstance(failure, CellFailure)
    assert (failure.index, failure.digest, failure.label) == (
        1, sup.digests[1], sup.labels[1]
    )
    assert (failure.cause, failure.attempts) == ("worker_dead", 2)
    assert failure.reason == "its pool worker died"
    assert events[-1]["type"] == "cell_exhausted"
    with pytest.raises(CellFailure) as excinfo:
        sup.raise_failures()
    assert excinfo.value is failure  # the lowest index wins


def test_without_a_policy_exceptions_raise_and_deaths_exhaust():
    sup, _clock, events = _supervisor(None)
    with pytest.raises(KeyError):
        sup.fail(0, KeyError("original"))
    assert events == [] and sup.attempts == [0, 0, 0]
    assert not sup.fail(0, "its pool worker died", "worker_dead")
    assert sup.failures[0].attempts == 1
    assert sup.overdue() == []


def test_a_landing_wins_over_a_racing_bill():
    sup, _clock, _events = _supervisor(
        RetryPolicy(max_attempts=1, backoff_base=0.0)
    )
    sup.fail(0, "deadline raced the result", "timeout")
    assert 0 in sup.failures
    sup.land(0)
    assert sup.failures == {} and sup.holds(0)
    assert not sup.fail(0, "late", "worker_dead")
    sup.raise_failures()  # nothing left to raise


class _Spec:
    def __init__(self, index):
        self.index = index

    def digest(self):
        return f"{self.index:016x}"

    def label(self):
        return f"cell{self.index}"


def test_concurrent_billing_loses_no_attempt():
    """Cluster reader threads bill while the monitor loop pops ready
    cells: every attempt number is handed out exactly once."""
    cells, max_attempts = 32, 4
    events = []
    sup = CellSupervisor(
        [_Spec(i) for i in range(cells)],
        RetryPolicy(max_attempts=max_attempts, backoff_base=0.0),
        events.append,
    )

    def hammer():
        while len(sup.failures) < cells:
            for index in range(cells):
                sup.fail(index, "its agent died", "worker_dead")
            sup.ready()

    threads = [threading.Thread(target=hammer) for _ in range(8)]
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
    for index in range(cells):
        mine = [(e["type"], e["attempt"]) for e in events
                if e["index"] == index]
        assert mine == [("cell_retry", a) for a in range(1, max_attempts)] + [
            ("cell_exhausted", max_attempts)
        ]
    assert sup.attempts == [max_attempts] * cells
    assert sup.ledger.illegal == 0


# ----------------------------------------------------------------------
# deadlines
# ----------------------------------------------------------------------
TIMEOUT = RetryPolicy(max_attempts=3, backoff_base=0.0, cell_timeout=5.0)


def test_cell_timeout_is_emitted_once_per_attempt():
    sup, clock, events = _supervisor(TIMEOUT)
    _start(sup, 0, worker=7)
    _start(sup, 1, worker=8)
    clock.now += 5.0
    assert sup.overdue() == []  # not *past* the deadline yet
    clock.now += 0.1
    _start(sup, 2, worker=9)  # a fresh attempt is not overdue
    assert [c.index for c in sup.overdue()] == [0, 1]
    assert sup.overdue() == []  # billed: the kill notice went out once
    # the kill breaks the host: its death must not bill the cell again
    assert not sup.fail(0, "its pool worker died", "worker_dead")
    assert _kinds(events) == [
        ("cell_timeout", 0, 1, "timeout"),
        ("cell_retry", 0, 1, "timeout"),
        ("cell_timeout", 1, 1, "timeout"),
        ("cell_retry", 1, 1, "timeout"),
    ]
    timeout = next(e for e in events if e["type"] == "cell_timeout")
    assert (timeout["worker"], timeout["timeout"]) == (7, 5.0)
    # the next attempt gets its own deadline and its own notice
    assert sup.ready() == [0, 1]
    _start(sup, 0, worker=10)
    clock.now += 5.1
    over = sup.overdue()
    assert [c.index for c in over] == [0, 2]
    assert over[0].worker == 10
    assert events[-4]["attempt"] == 2


def test_a_cell_already_billed_never_times_out():
    sup, clock, events = _supervisor(TIMEOUT)
    _start(sup, 0)
    assert sup.fail(0, "its pool worker died", "worker_dead")
    clock.now += 60.0
    assert sup.overdue() == []
    assert [e["type"] for e in events] == ["cell_start", "cell_retry"]


@pytest.mark.parametrize("max_attempts", [1, 2])
def test_the_timeout_sequence_walks_legal_transitions(max_attempts):
    policy = RetryPolicy(
        max_attempts=max_attempts, backoff_base=0.0, cell_timeout=1.0
    )
    sup, clock, events = _supervisor(policy)
    for _attempt in range(max_attempts):
        _start(sup, 0)
        clock.now += 2.0
        assert len(sup.overdue()) == 1
        sup.ready()
    _start(sup, 0)  # an exhausted cell may still run (cluster merge)
    sup.emit({"type": "cell_done", "index": 0, "digest": sup.digests[0],
              "label": sup.labels[0], "records": 2})
    replay, path = ProgressState(), ["pending"]
    for event in events:
        path.append(replay.handle(event).state)
    assert replay.illegal == 0 and sup.ledger.illegal == 0
    for before, after in zip(path, path[1:]):
        assert after in TRANSITIONS[before], path
    types = [e["type"] for e in events]
    retries = ["cell_start", "cell_timeout", "cell_retry"] * (max_attempts - 1)
    assert types == retries + [
        "cell_start", "cell_timeout", "cell_exhausted", "cell_start",
        "cell_done",
    ]
    assert path[-3:] == ["exhausted", "running", "landed"]


# ----------------------------------------------------------------------
# backends
# ----------------------------------------------------------------------
class _RaisingSession(Session):
    def __init__(self, bad_digest):
        super().__init__()
        self.bad_digest = bad_digest

    def run(self, spec):
        if spec.digest() == self.bad_digest:
            raise RuntimeError("simulated core died")
        return super().run(spec)


def test_serial_exhaustion_finishes_the_other_cells_first():
    specs = SMALL.specs()
    landed, events = [], []
    executor = SerialExecutor(
        _RaisingSession(specs[0].digest()),
        retry=RetryPolicy(max_attempts=2, backoff_base=0.0),
    )
    with pytest.raises(CellFailure) as excinfo:
        executor.run(
            specs, on_event=events.append,
            on_result=lambda i, result: landed.append(i),
        )
    assert excinfo.value.index == 0 and excinfo.value.attempts == 2
    assert landed == [1, 2]
    assert [e["index"] for e in events if e["type"] == "cell_done"] == [1, 2]


def test_worker_reports_a_failed_cell_as_typed_cell_error(tmp_path):
    specs = SMALL.specs()[:1]
    cells = [(0, {"broken": True}), (1, specs[0].to_dict())]
    script = dumps_line(shard_message(cells, 2)) + "\n"
    out = io.StringIO()
    run_worker(
        tmp_path / "bus", heartbeat=0, in_stream=io.StringIO(script),
        out_stream=out,
    )
    messages = [parse_line(line) for line in out.getvalue().splitlines()]
    errors = [m for m in messages if m["type"] == "cell_error"]
    assert [(m["index"], m["cause"]) for m in errors] == [(0, "exception")]
    assert [m["index"] for m in messages if m["type"] == "cell_result"] == [1]
    assert messages[-1] == {"type": "shard_done", "count": 1}


def test_pooled_agent_inner_worker_death_is_billed_worker_dead(tmp_path):
    """A pooled agent's inner pool worker SIGKILLed mid-cell: the agent
    reports ``cell_error(cause=worker_dead)`` and the coordinator alone
    bills it -- no forwarded ``cell_exhausted`` pushing the ledger into
    an illegal exhausted -> pending move, no ``exception`` cause."""
    specs = GRID.specs()
    baseline = [
        dumps_canonical(r.to_dict()) for r in SerialExecutor().run(specs)
    ]
    ledger = ProgressState(total=len(specs))
    events, killed = [], []

    def on_event(event):
        events.append(event)
        ledger.handle(event)
        if event["type"] == "cell_start" and not killed:
            killed.append(event["worker"])
            sigkill(event["worker"])

    executor = ClusterExecutor(
        workers=2,
        worker_procs=2,
        cache_dir=tmp_path / "bus",
        heartbeat_interval=0.2,
        retry=RetryPolicy(max_attempts=5, backoff_base=0.0),
    )
    results = executor.run(specs, on_event=on_event)
    assert killed, "no cell_start ever reported a worker pid"
    assert ledger.illegal == 0
    retries = [e for e in events if e["type"] == "cell_retry"]
    assert retries and all(e["cause"] == "worker_dead" for e in retries)
    assert not any(e["type"] == "cell_exhausted" for e in events)
    assert executor.last_worker_deaths == 0  # the agents survived
    assert [dumps_canonical(r.to_dict()) for r in results] == baseline
    assert ledger.report()["done"] == len(specs)


def test_cached_serial_exhaustion_lands_every_other_cell(tmp_path):
    specs = SMALL.specs()
    executor = CachingExecutor(
        tmp_path / "bus",
        SerialExecutor(
            _RaisingSession(specs[1].digest()),
            retry=RetryPolicy(max_attempts=1),
        ),
    )
    with pytest.raises(CellFailure) as excinfo:
        executor.run(specs)
    assert excinfo.value.index == 1
    again = CachingExecutor(tmp_path / "bus", SerialExecutor())
    again.run([specs[0], specs[2]])
    assert again.last_hits == 2


class _FirstLaunchFails(LocalLauncher):
    """Worker 0's host is unreachable; worker 1 launches normally."""

    def launch(self, worker_id, worker_args):
        if worker_id == 0:
            raise OSError("no route to host")
        return super().launch(worker_id, worker_args)


def test_a_worker_that_fails_to_launch_is_billed_like_a_death(tmp_path):
    specs = SMALL.specs()
    shards = shard_by_digest(specs, 2)
    assert shards[0] and shards[1]  # both agents own cells
    ledger = ProgressState(total=len(specs))
    executor = ClusterExecutor(
        workers=2,
        launcher=_FirstLaunchFails(),
        cache_dir=tmp_path / "bus",
        heartbeat_interval=0.2,
    )
    results = executor.run(specs, on_event=ledger.handle)
    assert [dumps_canonical(r.to_dict()) for r in results] == [
        dumps_canonical(r.to_dict()) for r in SerialExecutor().run(specs)
    ]
    assert executor.last_worker_deaths == 1
    # the unreachable agent's shard was re-dispatched, not computed
    # locally by the merge pass
    assert executor.last_fallback == 0
    assert ledger.causes == {"worker_dead": len(shards[0])}
