"""Golden-convergence early stop in phase 3 (``GoldenRun.finish``).

Once an injection or QRR run reaches a whole-machine state equal to a
golden checkpoint, the rest of the run can only replay the golden run,
so ``finish`` jumps to the golden halt state and lets ``Machine.run``
drain from there.  The contract is that nothing observable changes: the
``RunResult``, the final machine state, the corrupted-word watch and
every campaign record equal those of plain ``machine.run`` started from
the same state, on both engines.

A run jumped when its simulated cycles outran the cycles the machine
advanced through (``Machine.cycles_advanced`` counts idle hops too, so
without a jump the two always agree).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.faults.models import parse_fault
from repro.injection.campaign import InjectionCampaign
from repro.mixedmode.platform import GoldenRun, MixedModePlatform, compute_golden
from repro.qrr.campaign import QrrCampaign
from repro.system.machine import ENGINES, MachineConfig

CFG = MachineConfig(cores=4, threads_per_core=2, l2_banks=8, l2_sets=16)
BENCHMARK = "fft"
SCALE = 2.5e-5
HANG = 1_000_000


@pytest.fixture(scope="module", params=ENGINES)
def platform(request):
    return MixedModePlatform(
        BENCHMARK, machine_config=CFG, scale=SCALE, seed=2015, engine=request.param
    )


def _state(machine) -> tuple:
    return (
        machine.snapshot(),
        sorted(machine.corrupt_watch),
        machine.corrupt_read_cycle,
    )


#: the driver under test, kept before any test patches the class
_FINISH = GoldenRun.finish


def _finish(golden, machine, plain: bool, hang: int = HANG) -> tuple:
    """One phase 3, by ``finish`` or (``plain``) by full simulation:
    (result, final state, jumped)."""
    cycle0, advanced0 = machine.cycle, machine.cycles_advanced
    if plain:
        result = machine.run(hang_factor_cycles=hang)
    else:
        result = _FINISH(golden, machine, hang)
    jumped = machine.cycle - cycle0 != machine.cycles_advanced - advanced0
    return result, _state(machine), jumped


def _phase3_log(monkeypatch, drive, plain: bool) -> tuple[list, list]:
    """Run ``drive()`` recording every phase 3 it reaches.

    With ``plain`` set, phase 3 is ``machine.run`` -- full simulation,
    the behaviour ``finish`` must reproduce.  Returns the campaign
    records and one (entry state, result, final state, jumped) per
    phase 3.
    """
    log = []

    def finish(golden, machine, hang_factor_cycles):
        entry = _state(machine)
        outcome = _finish(golden, machine, plain, hang_factor_cycles)
        log.append((entry, *outcome))
        return outcome[0]

    with monkeypatch.context() as patch:
        patch.setattr(GoldenRun, "finish", finish)
        records = drive()
    return records, log


def _assert_same_as_plain(monkeypatch, drive) -> list[bool]:
    """``finish`` and plain ``machine.run`` agree on every phase 3 of
    ``drive()``; returns which phase-3 runs jumped."""
    plain_records, plain_log = _phase3_log(monkeypatch, drive, plain=True)
    records, log = _phase3_log(monkeypatch, drive, plain=False)
    assert records == plain_records
    assert len(log) == len(plain_log)
    for i, (got, want) in enumerate(zip(log, plain_log)):
        assert got[0] == want[0], f"phase 3 #{i}: entry states differ"
        assert got[1] == want[1], f"phase 3 #{i}: RunResult differs"
        assert got[2] == want[2], f"phase 3 #{i}: final states differ"
    return [entry[3] for entry in log]


def _unused_word(machine) -> int:
    """A word address outside every region: nothing reads or writes it."""
    return max(base + size for base, size, _ in machine.regions) + 64


def _corrupted_machine(platform, **config):
    """A fresh machine at golden checkpoint 0 (config fields replaced by
    ``config``) with a corrupted DRAM word nothing reads or rewrites."""
    machine = platform._fresh_machine()
    machine.config = dataclasses.replace(CFG, **config)
    machine.restore(platform.golden.snapshots[0])
    machine.dram.write_word(_unused_word(machine), 0xBAD)
    return machine


def _qrr_records(platform, component, n, seed):
    def drive():
        records = QrrCampaign(platform, component).run(n, seed=seed)
        return [
            (r.instance, r.injection_cycle, r.detected, r.recovered, r.recovery_cycles)
            for r in records
        ]

    return drive


class TestFinishEqualsFullSimulation:
    """Post-recovery and post-handover phase 3, jump or no jump."""

    def test_qrr_recovery_runs(self, platform, monkeypatch):
        jumped = _assert_same_as_plain(
            monkeypatch, _qrr_records(platform, "l2c", 8, seed=0)
        )
        # the cell mixes converging and non-converging runs
        assert any(jumped) and not all(jumped), jumped

    def test_handover_runs_with_corrupted_state(self, platform, monkeypatch):
        def drive():
            campaign = InjectionCampaign(
                platform, "l2c", seed=2015, fault=parse_fault("sram:k=2")
            )
            return [run.to_dict() for run in campaign.run(8)]

        jumped = _assert_same_as_plain(monkeypatch, drive)
        assert len(jumped) == 8  # every SRAM run handed over


class TestJumpRefused:
    def _from_golden(self, platform, watch: set) -> tuple:
        """(finish, plain) phase 3 from golden checkpoint 0 with a
        corrupted-word watch: the machine equals the golden run at
        every checkpoint, so only the watch can hold the jump back."""
        machine, golden = platform.machine, platform.golden
        outcomes = []
        for plain in (False, True):
            machine.restore(golden.snapshots[0])
            machine.corrupt_watch = set(watch)
            outcomes.append(_finish(golden, machine, plain))
        return outcomes

    def test_unread_watch_never_jumps(self, platform):
        (result, state, jumped), (want, want_state, _) = self._from_golden(
            platform, {_unused_word(platform.machine)}
        )
        assert not jumped
        assert (result, state) == (want, want_state)
        assert state[2] is None

    def test_jump_waits_for_the_first_read(self, platform):
        # the globals are first read several checkpoints into the run
        base, size, _ = next(r for r in platform.machine.regions if r[2] == "globals")
        watch = set(range(base, base + size, 8))
        (result, state, jumped), (want, want_state, _) = self._from_golden(
            platform, watch
        )
        read = want_state[2]
        assert read is not None and read > 2 * platform.cosim.snapshot_interval
        assert (result, state) == (want, want_state)
        assert jumped  # once the read happened, the jump is allowed

    def test_corrupted_dram_word_never_jumps(self, platform):
        """A DRAM word nothing reads or rewrites keeps the machine off
        every golden checkpoint, though all else re-converges."""
        golden = platform.golden
        outcomes = [
            _finish(golden, _corrupted_machine(platform), plain)
            for plain in (False, True)
        ]
        (result, state, jumped), (want, want_state, _) = outcomes
        assert not jumped
        assert (result, state) == (want, want_state)
        # the word is the only difference from the golden end state
        machine = platform.machine
        machine.restore(golden.snapshots.halt_state())
        machine.run(hang_factor_cycles=HANG)
        assert state[0]["dram"].pop(_unused_word(machine)) == 0xBAD
        assert state[0] == machine.snapshot()


class TestExitsUnchanged:
    def test_cap_below_golden_length(self, platform):
        """A hang cap the golden run would cross leaves nothing to jump
        to: the run stops hung at the cap, as full simulation does."""
        golden = platform.golden
        cap = golden.cycles // 2
        outcomes = []
        for plain in (False, True):
            platform.machine.restore(golden.snapshots[0])
            outcomes.append(_finish(golden, platform.machine, plain, cap))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][0].hung and outcomes[0][0].cycles == cap

    def test_watchdog_fires_at_the_same_cycle(self, platform):
        """The chunk to the next checkpoint stops where the watchdog
        fires, so a hang is declared at the cycle full simulation
        declares it."""
        outcomes = []
        for plain in (False, True):
            machine = _corrupted_machine(platform, watchdog_cycles=8)
            outcomes.append(_finish(platform.golden, machine, plain)[:2])
        (result, state), (want, want_state) = outcomes
        assert want.hung and want.cycles < platform.cosim.snapshot_interval
        assert (result, state) == (want, want_state)


class TestHaltCheckpoint:
    def test_halt_is_the_golden_end_state(self, platform):
        """The halt checkpoint is the machine at the exact cycle the
        last thread halted, before the uncore drains."""
        golden = platform.golden
        halt = golden.snapshots.halt_state()
        assert halt["cycle"] == golden.cycles
        assert halt["output"] == golden.output
        assert halt["retired_total"] == golden.retired
        fresh = platform._fresh_machine()
        assert not fresh.advance_until(CFG.max_cycles)
        assert fresh.snapshot() == halt

    def test_no_snapshots_no_jump(self, platform):
        fresh = platform._fresh_machine()
        golden = compute_golden(fresh, platform.cosim, keep_snapshots=False)
        fresh.restore(platform.golden.snapshots[0])
        result, _state, jumped = _finish(golden, fresh, plain=False)
        assert result.completed and result.output == platform.golden.output
        assert not jumped


class TestEarlyStopStaysOn:
    def test_fixed_qrr_cell_jumps(self, platform, monkeypatch):
        """A fixed QRR cell converges at least once, so the early
        stop cannot switch itself off unnoticed."""
        _records, log = _phase3_log(
            monkeypatch, _qrr_records(platform, "mcu", 4, seed=0), plain=False
        )
        assert sum(entry[3] for entry in log) >= 1
