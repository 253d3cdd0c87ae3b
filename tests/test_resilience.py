"""The resilience layer: retry policy, crash-safe sweep journal, cache
fsck, graceful shutdown, per-cell failure attribution, and the ssh
launcher's host-spec edge cases."""

import json
import os
import signal

import pytest

from repro.api import (
    CachingExecutor,
    Grid,
    ParallelExecutor,
    SerialExecutor,
    dumps_canonical,
    make_executor,
    result_cache_path,
    store_cached_result,
)
from repro.api.executor import CellFailure
from repro.api.session import Session
from repro.cli import main
from repro.cluster import SshLauncher
from repro.cluster.launchers import split_host_port
from repro.obs import ProgressState
from repro.resilience import (
    GracefulShutdown,
    RetryPolicy,
    SweepInterrupted,
    SweepJournal,
    fsck_cache,
)
from repro.resilience.chaos import corrupt_entry, plant_orphan_tmp
from repro.resilience.journal import JOURNAL_VERSION, journal_path
from repro.system.machine import MachineConfig

CFG = MachineConfig(cores=2, threads_per_core=2, l2_banks=8, l2_sets=8)

#: Zero-delay retry policy so retry-path tests never sleep.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0)


def _grid(components=("l2c", "mcu"), benchmarks=("fft",)):
    return Grid(
        components=components,
        benchmarks=benchmarks,
        seeds=(2015,),
        mode="injection",
        n=2,
        machine=CFG,
        scale=5e-6,
    )


def _specs(**kwargs):
    return _grid(**kwargs).specs()


def _blobs(results):
    return [dumps_canonical(r.to_dict()) for r in results]


# ----------------------------------------------------------------------
# RetryPolicy
# ----------------------------------------------------------------------
def test_retry_policy_validates_its_knobs():
    with pytest.raises(ValueError):
        RetryPolicy(max_attempts=0)
    with pytest.raises(ValueError):
        RetryPolicy(jitter=1.5)
    with pytest.raises(ValueError):
        RetryPolicy(backoff_base=-1.0)
    with pytest.raises(ValueError):
        RetryPolicy(cell_timeout=0.0)


def test_retry_policy_attempt_budget():
    policy = RetryPolicy(max_attempts=3)
    assert not policy.exhausted(0)
    assert not policy.exhausted(2)
    assert policy.exhausted(3)
    assert policy.exhausted(4)
    assert RetryPolicy(max_attempts=1).exhausted(1)


def test_backoff_is_deterministic_and_jitter_bounded():
    policy = RetryPolicy(
        backoff_base=0.1, backoff_factor=2.0, backoff_cap=30.0, jitter=0.5
    )
    digest = "a" * 16
    for attempt in range(1, 6):
        delay = policy.backoff(digest, attempt)
        # pure function of (digest, attempt): same inputs, same delay
        assert delay == policy.backoff(digest, attempt)
        base = min(30.0, 0.1 * 2.0 ** (attempt - 1))
        assert base * 0.75 <= delay <= base * 1.25
    # the jitter term actually depends on the digest
    schedules = {
        d: [policy.backoff(d, a) for a in range(1, 4)]
        for d in ("a" * 16, "b" * 16)
    }
    assert schedules["a" * 16] != schedules["b" * 16]


def test_backoff_without_jitter_is_exact_and_capped():
    policy = RetryPolicy(
        backoff_base=1.0, backoff_factor=10.0, backoff_cap=50.0, jitter=0.0
    )
    assert policy.backoff("d", 1) == 1.0
    assert policy.backoff("d", 2) == 10.0
    assert policy.backoff("d", 3) == 50.0  # capped, not 100
    assert RetryPolicy(backoff_base=0.0).backoff("d", 1) == 0.0


def test_over_deadline():
    assert not RetryPolicy().over_deadline(0.0, 1e9)  # no deadline set
    policy = RetryPolicy(cell_timeout=5.0)
    assert not policy.over_deadline(100.0, 104.0)
    assert policy.over_deadline(100.0, 105.1)


# ----------------------------------------------------------------------
# serial retry loop
# ----------------------------------------------------------------------
class _FlakySession:
    """Delegates to a real Session but raises the first ``fails`` times
    each digest is run."""

    def __init__(self, fails=1, only=None):
        self.inner = Session()
        self.fails = fails
        self.only = only  # digest -> only that cell is flaky
        self.seen = {}

    def run(self, spec):
        digest = spec.digest()
        if self.only is None or digest == self.only:
            count = self.seen.get(digest, 0)
            self.seen[digest] = count + 1
            if count < self.fails:
                raise RuntimeError(f"flaky ({count + 1})")
        return self.inner.run(spec)


def test_serial_retry_recovers_byte_identical():
    specs = _specs()
    baseline = _blobs(SerialExecutor().run(specs))
    events = []
    executor = SerialExecutor(
        session=_FlakySession(fails=1), retry=FAST_RETRY
    )
    results = executor.run(specs, on_event=events.append)
    assert _blobs(results) == baseline
    retries = [e for e in events if e["type"] == "cell_retry"]
    assert [e["index"] for e in retries] == list(range(len(specs)))
    for event in retries:
        assert event["attempt"] == 1
        assert "flaky" in event["error"]
    # retried cells get a fresh cell_start per attempt
    starts = [e for e in events if e["type"] == "cell_start"]
    assert len(starts) == 2 * len(specs)


def test_serial_exhaustion_raises_cell_failure():
    specs = _specs(components=("l2c",))
    events = []
    executor = SerialExecutor(
        session=_FlakySession(fails=99), retry=FAST_RETRY
    )
    with pytest.raises(CellFailure) as excinfo:
        executor.run(specs, on_event=events.append)
    failure = excinfo.value
    assert failure.index == 0
    assert failure.digest == specs[0].digest()
    assert failure.attempts == FAST_RETRY.max_attempts
    assert "RuntimeError" in failure.reason
    # the failure names the cell in its message
    assert specs[0].label() in str(failure)
    exhausted = [e for e in events if e["type"] == "cell_exhausted"]
    assert len(exhausted) == 1
    assert exhausted[0]["index"] == 0


def test_serial_without_retry_raises_the_original_exception():
    specs = _specs(components=("l2c",))
    executor = SerialExecutor(session=_FlakySession(fails=99))
    with pytest.raises(RuntimeError):
        executor.run(specs, on_event=lambda e: None)


def test_serial_stop_drains_between_cells():
    import threading

    specs = _specs(components=("l2c", "mcu", "ccx"))
    stop = threading.Event()
    landed = []

    def on_result(index, result):
        landed.append(index)
        stop.set()  # request shutdown after the first cell lands

    with pytest.raises(SweepInterrupted) as excinfo:
        SerialExecutor().run(specs, stop=stop, on_result=on_result)
    assert landed == [0]
    assert excinfo.value.done == 1
    assert excinfo.value.total == len(specs)


def test_graceful_shutdown_signals():
    with GracefulShutdown() as guard:
        assert not guard.stop.is_set()
        os.kill(os.getpid(), signal.SIGINT)
        assert guard.stop.wait(timeout=5.0)
        # a second signal escalates to the ordinary hard stop
        with pytest.raises(KeyboardInterrupt):
            os.kill(os.getpid(), signal.SIGINT)
        assert guard.signals_seen == 2
    # handlers are restored on exit
    assert signal.getsignal(signal.SIGINT) is not guard._handle


# ----------------------------------------------------------------------
# process pool: failures name the cell, kills are survivable
# ----------------------------------------------------------------------
def _kill_first_cell_start(events, killed):
    """An on_event hook that SIGKILLs the pool worker hosting the first
    cell_start it sees (once)."""

    def on_event(event):
        events.append(event)
        if (
            event.get("type") == "cell_start"
            and not killed
            and event.get("worker")
        ):
            killed.append(event["index"])
            os.kill(event["worker"], signal.SIGKILL)

    return on_event


def test_parallel_worker_kill_without_retry_fails_only_that_cell():
    specs = _specs(components=("l2c", "mcu", "ccx"))
    events, killed = [], []
    executor = ParallelExecutor(workers=1)
    with pytest.raises(CellFailure) as excinfo:
        executor.run(specs, on_event=_kill_first_cell_start(events, killed))
    assert killed, "no cell_start ever reported a worker pid"
    failure = excinfo.value
    assert failure.index == killed[0]
    assert "worker died" in failure.reason
    # every *other* cell still completed in a fresh pool
    done = {e["index"] for e in events if e["type"] == "cell_done"}
    assert done == set(range(len(specs))) - {killed[0]}


def test_parallel_worker_kill_with_retry_completes_byte_identical():
    specs = _specs(components=("l2c", "mcu", "ccx"))
    baseline = _blobs(SerialExecutor().run(specs))
    events, killed = [], []
    executor = ParallelExecutor(workers=2, retry=FAST_RETRY)
    state = ProgressState(total=len(specs))
    hook = _kill_first_cell_start(events, killed)

    def on_event(event):
        hook(event)
        state.handle(event)

    results = executor.run(specs, on_event=on_event)
    assert killed
    assert _blobs(results) == baseline
    retried = [e for e in events if e["type"] == "cell_retry"]
    assert any("worker died" in e["error"] for e in retried)
    report = state.report()
    assert report["done"] == len(specs)
    assert report["malformed_events"] == 0
    assert report["retries"] >= 1


def test_caching_executor_remaps_cell_failure_to_grid_coordinates(tmp_path):
    specs = _specs(components=("l2c", "mcu", "ccx"))
    cache = tmp_path / "cache"
    # land cell 0 so the victim sits at miss-list position 0 but grid
    # position 1: the re-raised failure must speak grid coordinates
    CachingExecutor(cache, SerialExecutor()).run(specs[:1])
    flaky = SerialExecutor(
        session=_FlakySession(fails=99, only=specs[1].digest()),
        retry=RetryPolicy(max_attempts=1),
    )
    with pytest.raises(CellFailure) as excinfo:
        CachingExecutor(cache, flaky).run(specs)
    assert excinfo.value.index == 1
    assert excinfo.value.digest == specs[1].digest()


def test_caching_executor_counts_hits_into_interrupted_done(tmp_path):
    import threading

    specs = _specs(components=("l2c", "mcu", "ccx"))
    cache = tmp_path / "cache"
    CachingExecutor(cache, SerialExecutor()).run(specs[:1])
    stop = threading.Event()
    seen = []

    def on_result(index, result):
        seen.append(index)
        stop.set()

    with pytest.raises(SweepInterrupted) as excinfo:
        CachingExecutor(cache, SerialExecutor()).run(
            specs, stop=stop, on_result=on_result
        )
    # one hit + one freshly-landed miss were done when the stop landed
    assert seen == [1]
    assert excinfo.value.done == 2
    assert excinfo.value.total == len(specs)


def test_make_executor_builds_retry_from_cli_scalars(tmp_path):
    serial = make_executor(max_retries=0)
    assert isinstance(serial, SerialExecutor)
    assert serial.retry.max_attempts == 1
    pool = make_executor(workers=2, max_retries=3, cell_timeout=5.0)
    assert isinstance(pool, ParallelExecutor)
    assert pool.retry.max_attempts == 4
    assert pool.retry.cell_timeout == 5.0
    cached = make_executor(cache_dir=tmp_path / "c", cell_timeout=2.0)
    assert isinstance(cached, CachingExecutor)
    assert cached.inner.retry.cell_timeout == 2.0


# ----------------------------------------------------------------------
# sweep journal
# ----------------------------------------------------------------------
def _make_journal(tmp_path, specs=None, grid=None):
    grid = grid if grid is not None else _grid()
    specs = specs if specs is not None else grid.specs()
    journal = SweepJournal.create(
        tmp_path / "journal", grid.to_dict(), specs
    )
    return journal, specs


def test_journal_create_load_roundtrip(tmp_path):
    grid = _grid(components=("l2c", "mcu", "ccx"))
    journal, specs = _make_journal(tmp_path, grid=grid)
    assert journal_path(journal.directory).is_file()
    assert journal.bus_path().is_dir()
    assert journal.counts() == {
        "pending": len(specs), "landed": 0, "failed": 0, "exhausted": 0,
    }
    loaded = SweepJournal.load(tmp_path / "journal")
    assert loaded.matches(specs)
    assert loaded.unlanded() == list(range(len(specs)))
    # the recorded grid rebuilds the exact same cells
    rebuilt = loaded.to_grid().specs()
    assert [s.digest() for s in rebuilt] == [s.digest() for s in specs]


def test_journal_folds_executor_events_durably(tmp_path):
    journal, specs = _make_journal(tmp_path)
    d0, d1 = specs[0].digest(), specs[1].digest()
    journal.handle_event({"type": "cell_retry", "digest": d0, "attempt": 1})
    journal.handle_event({"type": "cell_done", "digest": d0})
    journal.handle_event({"type": "cell_error", "digest": d1})
    journal.handle_event({"type": "cache_hit", "digest": "not-ours"})
    journal.handle_event("not even a dict")
    loaded = SweepJournal.load(journal.directory)
    assert loaded.cells[0]["state"] == "landed"
    assert loaded.cells[0]["attempts"] == 1
    assert loaded.cells[1]["state"] == "failed"
    assert loaded.unlanded() == [1]
    journal.handle_event(
        {"type": "cell_exhausted", "digest": d1, "attempt": 3}
    )
    loaded = SweepJournal.load(journal.directory)
    assert loaded.cells[1]["state"] == "exhausted"
    assert loaded.cells[1]["attempts"] == 3
    # every flush was an atomic publish: no staging files survive
    assert not list(journal.directory.glob("*.tmp"))


def test_journal_reconcile_trusts_the_bus(tmp_path):
    journal, specs = _make_journal(tmp_path)
    # a worker landed cell 0 but the coordinator died before flushing
    result = SerialExecutor().run(specs[:1])[0]
    store_cached_result(
        result_cache_path(journal.bus_path(), specs[0]), result
    )
    assert journal.reconcile(specs) == 1
    assert journal.reconcile(specs) == 0  # idempotent
    assert journal.unlanded() == [1]
    assert SweepJournal.load(journal.directory).cells[0]["state"] == "landed"


def test_journal_load_rejects_damage(tmp_path):
    with pytest.raises(FileNotFoundError):
        SweepJournal.load(tmp_path / "missing")
    bad = tmp_path / "bad"
    bad.mkdir()
    journal_path(bad).write_text("{torn")
    with pytest.raises(ValueError):
        SweepJournal.load(bad)
    versioned = tmp_path / "versioned"
    versioned.mkdir()
    journal_path(versioned).write_text(
        json.dumps(
            {
                "journal_version": JOURNAL_VERSION + 1,
                "grid": {},
                "cells": [],
            }
        )
    )
    with pytest.raises(ValueError):
        SweepJournal.load(versioned)


# ----------------------------------------------------------------------
# cache fsck
# ----------------------------------------------------------------------
def _warm_cache(tmp_path):
    specs = _specs(components=("l2c", "mcu", "ccx"))
    cache = tmp_path / "cache"
    CachingExecutor(cache, SerialExecutor()).run(specs)
    return cache, specs


def test_fsck_classifies_every_damage_shape(tmp_path):
    cache, specs = _warm_cache(tmp_path)
    assert fsck_cache(cache).issues == 0
    victim = result_cache_path(cache, specs[0])
    corrupt_entry(victim)
    # a valid result filed under the wrong digest
    mismatched = cache / ("f" * len(specs[1].digest()) + ".json")
    mismatched.write_bytes(result_cache_path(cache, specs[1]).read_bytes())
    old_tmp = plant_orphan_tmp(cache)
    young_tmp = cache / "live-writer.json.1.0.tmp"
    young_tmp.write_text("{")

    report = fsck_cache(cache)
    assert report.ok == len(specs) - 1
    assert report.corrupt == [victim.name]
    assert report.mismatched == [mismatched.name]
    assert report.orphan_tmp == [old_tmp.name]
    assert report.skipped_tmp == 1
    assert report.issues == 3
    assert report.quarantined == []  # scan-only never moves bytes
    assert victim.is_file()

    repaired = fsck_cache(cache, repair=True)
    assert sorted(repaired.quarantined) == sorted(
        [victim.name, mismatched.name, old_tmp.name]
    )
    quarantine = cache / "quarantine"
    assert not victim.exists()
    assert (quarantine / victim.name).is_file()
    assert (quarantine / old_tmp.name).is_file()
    # post-repair the bus is clean (the young tmp is still respected)
    after = fsck_cache(cache)
    assert after.issues == 0
    assert after.ok == len(specs) - 1
    assert after.skipped_tmp == 1


def test_fsck_missing_dir_raises(tmp_path):
    with pytest.raises(FileNotFoundError):
        fsck_cache(tmp_path / "never-existed")


def test_cli_cache_fsck(tmp_path, capsys):
    cache, specs = _warm_cache(tmp_path)
    assert main(["cache", "fsck", str(cache)]) == 0
    assert "0 corrupt" in capsys.readouterr().out
    corrupt_entry(result_cache_path(cache, specs[0]))
    assert main(["cache", "fsck", str(cache), "--json", "-"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["issues"] == 1
    assert payload["corrupt"] == [result_cache_path(cache, specs[0]).name]
    assert main(["cache", "fsck", str(cache), "--repair"]) == 1
    assert "quarantine" in capsys.readouterr().out
    assert main(["cache", "fsck", str(cache)]) == 0


# ----------------------------------------------------------------------
# progress folds the resilience events
# ----------------------------------------------------------------------
def test_progress_state_folds_resilience_events():
    state = ProgressState(total=4)
    state.handle({"type": "cell_retry", "index": 1, "attempt": 1})
    state.handle({"type": "cell_timeout", "index": 2, "attempt": 1})
    state.handle({"type": "cell_exhausted", "index": 3, "attempt": 3})
    report = state.report()
    assert report["malformed_events"] == 0
    assert report["retries"] == 1
    assert report["timeouts"] == 1
    assert report["exhausted"] == [3]


# ----------------------------------------------------------------------
# ssh launcher edge cases
# ----------------------------------------------------------------------
def test_split_host_port():
    assert split_host_port("node1") == ("node1", None)
    assert split_host_port("node1:2222") == ("node1", "2222")
    assert split_host_port("alice@node1") == ("alice@node1", None)
    assert split_host_port("alice@node1:22") == ("alice@node1", "22")
    # only an all-digit tail is a port
    assert split_host_port("node1:abc") == ("node1:abc", None)
    assert split_host_port("node1:") == ("node1:", None)


def test_ssh_launcher_user_and_port_become_ssh_argv():
    launcher = SshLauncher(["alice@node1:2222"], python="py3")
    argv = launcher.command(0, ["--cache-dir", "/bus"])
    assert argv[:5] == ["ssh", "-o", "BatchMode=yes", "-p", "2222"]
    assert argv[5] == "alice@node1"
    assert argv[6:] == [
        "py3", "-m", "repro.cli", "worker", "--cache-dir", "/bus",
    ]


def test_ssh_launcher_quotes_interpreter_and_pythonpath():
    import shlex

    launcher = SshLauncher(
        ["node1"],
        python="/opt/my python/bin/python3",
        pythonpath="/srv/re pro/src",
    )
    argv = launcher.command(0, ["--cache-dir", "/bus"])
    remote = argv[argv.index("node1") + 1:]
    assert remote[0] == "env"
    assert remote[1] == shlex.quote("PYTHONPATH=/srv/re pro/src")
    assert remote[2] == shlex.quote("/opt/my python/bin/python3")
    # the quoted argv survives a remote shell split intact
    assert shlex.split(" ".join(remote))[:3] == [
        "env", "PYTHONPATH=/srv/re pro/src", "/opt/my python/bin/python3",
    ]


def test_ssh_launcher_round_robin_with_more_workers_than_hosts():
    launcher = SshLauncher(["h1:22", "h2"], python="py3")
    placements = [launcher.host_for(i) for i in range(5)]
    assert placements == ["h1:22", "h2", "h1:22", "h2", "h1:22"]
    assert launcher.command(4, [])[:6] == [
        "ssh", "-o", "BatchMode=yes", "-p", "22", "h1",
    ]


def test_parse_launcher_env_overrides_with_spaces(monkeypatch):
    import shlex

    from repro.cluster import parse_launcher

    monkeypatch.setenv("REPRO_CLUSTER_PYTHON", "/opt/py 3/bin/python")
    monkeypatch.setenv("REPRO_CLUSTER_PYTHONPATH", "/src with space")
    launcher = parse_launcher("ssh:alice@h1:2200")
    argv = launcher.command(0, [])
    assert "-p" in argv and argv[argv.index("-p") + 1] == "2200"
    assert shlex.quote("PYTHONPATH=/src with space") in argv
    assert shlex.quote("/opt/py 3/bin/python") in argv
