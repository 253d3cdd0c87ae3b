"""One run-exit rule: the golden run, phase 3 and ``Machine.run`` agree.

A run ends at a trap, when every thread has halted, at the cycle cap or
when the watchdog fires.  ``compute_golden``, ``GoldenRun.finish`` and
``Machine.run`` all stop through ``Machine.advance_to_exit``, so for
every program they must report the same exit at the same cycle as
per-cycle stepping on the reference engine, which checks the exits in
the order trap, halted, cap, watchdog.  In particular a golden run
whose last live thread traps is a trap, not a completion.
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.core.cpu import ThreadState
from repro.core.program import ProgramBuilder
from repro.mixedmode.platform import CosimConfig, compute_golden
from repro.system.machine import ENGINES, Machine, MachineConfig
from repro.workloads.base import WorkloadImage

BASE = 0x10000
CFG = MachineConfig(
    cores=2, threads_per_core=2, l2_banks=4, l2_sets=16, watchdog_cycles=300
)
COSIM = CosimConfig(snapshot_interval=100)
#: the cycle cap of the "cap" program (below its completion)
CAP = 500


def _stores(n: int, offset: int) -> ProgramBuilder:
    """A thread storing ``n`` words to one slot."""
    b = ProgramBuilder("stores")
    b.ldi(1, BASE + offset)
    b.ldi(2, 0)
    b.ldi(3, n)
    loop = b.here
    b.st(2, 1, 0)
    b.addi(2, 2, 1)
    b.blt(2, 3, loop)
    return b


def _image(*builders: ProgramBuilder, init=None) -> WorkloadImage:
    programs = []
    for b in builders:
        b.halt()
        programs.append(b.build())
    return WorkloadImage(
        name="exits",
        programs=programs,
        regions=[(BASE, 0x1000, "globals")],
        init_words=init or {},
    )


def _last_thread_traps() -> WorkloadImage:
    """Thread 0 halts early; thread 1, the last live one, then loads
    from outside every region."""
    wild = _stores(100, 0x200)
    wild.ldi(1, 0x7FFF_0000)
    wild.ld(4, 1, 0)
    return _image(_stores(20, 0x100), wild)


def _completes() -> WorkloadImage:
    return _image(_stores(100, 0x100), _stores(150, 0x200))


def _carrier() -> WorkloadImage:
    """A longer completing program whose golden run gives phase 3
    checkpoints past every other program's exit.  Snapshots hold no
    code, so an initial memory word keeps its states from ever equaling
    theirs: ``finish`` never jumps."""
    return _image(_stores(400, 0x100), _stores(400, 0x200), init={BASE: 1})


def _as_own(golden, machine):
    """``golden`` relabelled as a golden run of ``machine``'s programs,
    which ``finish`` requires.  Only for the carrier, whose initial word
    keeps it from jumping to its own halt state."""
    return dataclasses.replace(golden, program_digest=machine.program_digest)


def _machine(image: WorkloadImage, engine: str, config=CFG) -> Machine:
    machine = Machine(config, engine=engine)
    machine.load_workload(image)
    return machine


def _deadlocked(engine: str, config=CFG) -> Machine:
    """Thread 1 waits for a load return that never comes (as a lost
    CPX packet leaves it) while thread 0 stores and halts: nothing
    retires after thread 0, so the watchdog fires."""
    machine = _machine(_image(_stores(10, 0x100), _stores(10, 0x200)), engine, config)
    snap = machine.snapshot()
    thread = snap["cores"][0]["threads"][1]
    thread["state"] = ThreadState.WAIT_MEM
    thread["wait_reqid"] = 0x7FFF
    machine.restore(snap)
    return machine


#: program -> (machine factory taking engine and config, its config)
PROGRAMS = {
    "trap": (lambda e, c: _machine(_last_thread_traps(), e, c), CFG),
    "halted": (lambda e, c: _machine(_completes(), e, c), CFG),
    "watchdog": (_deadlocked, CFG),
    "cap": (
        lambda e, c: _machine(_completes(), e, c),
        dataclasses.replace(CFG, max_cycles=CAP),
    ),
}


def _stepped(machine: Machine) -> tuple[str, int]:
    """Per-cycle stepping with every exit checked before each cycle."""
    config = machine.config
    while True:
        if machine.any_trap() is not None:
            return "trap", machine.cycle
        if machine.all_halted():
            return "halted", machine.cycle
        if machine.cycle >= config.max_cycles:
            return "cap", machine.cycle
        if machine.cycle - machine._last_retire_cycle > config.watchdog_cycles:
            return "watchdog", machine.cycle
        machine.step()


def _golden_exit(machine: Machine) -> tuple[str, int]:
    messages = {
        "golden run trapped": "trap",
        "golden run exceeded the cycle cap": "cap",
        "golden run hung": "watchdog",
    }
    try:
        golden = compute_golden(machine, COSIM)
    except RuntimeError as err:
        kind = next(k for m, k in messages.items() if str(err).startswith(m))
        return kind, machine.cycle
    return "halted", golden.cycles


def _result(res) -> tuple:
    return (res.completed, res.cycles, res.output, res.trap, res.hung, res.retired)


@pytest.fixture(scope="module")
def carrier_golden():
    return {
        engine: compute_golden(_machine(_carrier(), engine), COSIM)
        for engine in ENGINES
    }


class TestLastThreadTrap:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_golden_run_raises(self, engine):
        machine = _machine(_last_thread_traps(), engine)
        with pytest.raises(RuntimeError, match="golden run trapped"):
            compute_golden(machine, COSIM)
        assert machine.any_trap() is not None

    @pytest.mark.parametrize("engine", ENGINES)
    def test_run_reports_the_trap(self, engine):
        res = _machine(_last_thread_traps(), engine).run()
        assert not res.completed and res.trap is not None


class TestExitsAgree:
    @pytest.mark.parametrize("kind", sorted(PROGRAMS))
    def test_golden_run_matches_stepping(self, kind):
        make, config = PROGRAMS[kind]
        want = _stepped(make("reference", config))
        assert want[0] == kind
        for engine in ENGINES:
            assert _golden_exit(make(engine, config)) == want, engine

    @pytest.mark.parametrize("kind", sorted(PROGRAMS))
    def test_run_and_finish_match_reference_run(self, kind, carrier_golden):
        make, config = PROGRAMS[kind]
        want = make("reference", config).run()
        exit_kind, exit_cycle = _stepped(make("reference", config))
        assert want.completed == (exit_kind == "halted")
        if not want.completed:
            assert want.cycles == exit_cycle
        hang = CFG.max_cycles
        for engine in ENGINES:
            assert _result(make(engine, config).run()) == _result(want), engine
            machine = make(engine, config)
            finished = _as_own(carrier_golden[engine], machine).finish(
                machine, hang
            )
            assert _result(finished) == _result(want), engine

    def test_exits_fall_inside_the_checkpoint_loop(self, carrier_golden):
        """The trap and watchdog exits fall between the carrier's
        checkpoints, so phase 3 stops inside its checkpoint loop."""
        last = max(carrier_golden["event"].snapshots)
        for kind in ("trap", "watchdog"):
            make, config = PROGRAMS[kind]
            _kind, cycle = _stepped(make("reference", config))
            assert cycle % COSIM.snapshot_interval and cycle < last, kind


class TestFinishGuard:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_finish_refuses_other_programs(self, engine):
        """Without the carrier's initial word another program's state
        equals checkpoint 0, so ``finish`` would jump to the carrier's
        halt state; it refuses the machine instead."""
        golden = compute_golden(
            _machine(_image(_stores(400, 0x100), _stores(400, 0x200)), engine),
            COSIM,
        )
        machine = _machine(_completes(), engine)
        assert machine.snapshot() == golden.snapshots[0]
        with pytest.raises(ValueError, match="other programs"):
            golden.finish(machine, CFG.max_cycles)


class TestAdvanceToExit:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_target_before_halt(self, engine):
        """A run halting exactly at the target reaches the target first,
        so the golden run checkpoints its halt cycle."""
        halt = _golden_exit(_machine(_completes(), engine))[1]
        machine = _machine(_completes(), engine)
        assert machine.advance_to_exit(CFG.max_cycles, halt) is None
        assert machine.cycle == halt
        assert machine.advance_to_exit(CFG.max_cycles, halt + 100) == "halted"
        assert machine.cycle == halt
        golden = compute_golden(
            _machine(_completes(), engine), CosimConfig(snapshot_interval=halt)
        )
        assert list(golden.snapshots) == [0, halt]
        assert golden.cycles == halt

    @pytest.mark.parametrize("engine", ENGINES)
    @pytest.mark.parametrize("kind", sorted(PROGRAMS))
    def test_exit_kind_and_cycle(self, engine, kind):
        make, config = PROGRAMS[kind]
        want = _stepped(make("reference", config))
        machine = make(engine, config)
        assert machine.advance_to_exit(config.max_cycles) == kind
        assert (kind, machine.cycle) == want
        # an exit is sticky: asking again does not advance
        assert machine.advance_to_exit(config.max_cycles) == kind
        assert machine.cycle == want[1]
