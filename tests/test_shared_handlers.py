"""Compiled code is shared: one handler per distinct instruction.

``ProgramBuilder.build`` interns equal instructions and
``compile_program`` takes each instruction's handler from one
process-wide cache keyed by instruction value, so every thread, core,
machine and platform runs the same closure for the same instruction.
That is safe only because a handler captures nothing but its
instruction's fields (see the comment above ``compile_program``); the
differential and oracle suites check the bytes, this file checks the
sharing itself.
"""

from __future__ import annotations

from repro.core.cpu import Thread
from repro.mixedmode.platform import MixedModePlatform
from repro.system.machine import Machine, MachineConfig
from repro.workloads import build_workload
from repro.workloads.registry import ALL_BENCHMARKS

CFG = MachineConfig(cores=2, threads_per_core=2, l2_banks=4, l2_sets=8)
SCALE = 5e-6


def _threads(machine: Machine) -> list[Thread]:
    return [t for core in machine.cores for t in core.threads]


def _loaded(benchmark: str) -> Machine:
    image = build_workload(
        benchmark, threads=CFG.total_threads, scale=SCALE, seed=2015
    )
    machine = Machine(CFG)
    machine.load_workload(image)
    return machine


def test_build_twice_returns_the_same_instructions():
    a = build_workload("fft", threads=4, scale=SCALE, seed=2015)
    b = build_workload("fft", threads=4, scale=SCALE, seed=2015)
    for pa, pb in zip(a.programs, b.programs):
        assert pa is not pb
        assert len(pa.instrs) == len(pb.instrs)
        assert all(x is y for x, y in zip(pa.instrs, pb.instrs))


def test_equal_instructions_share_one_handler():
    """Across threads, cores and machines (two loads of one workload and
    a different workload)."""
    machines = [_loaded("fft"), _loaded("fft"), _loaded("radi")]
    handler_of = {}
    places = {}
    for m, machine in enumerate(machines):
        for thread in _threads(machine):
            for instr, handler in zip(thread.program.instrs, thread.handlers):
                assert handler_of.setdefault(instr, handler) is handler, instr
                places.setdefault(instr, set()).add(
                    (m, thread.core_idx, thread.thread_idx)
                )
    # the sharing is real: instructions occur in other threads, in other
    # cores and in other machines
    spread = [
        ({m for m, _, _ in p}, {(m, c) for m, c, _ in p}) for p in places.values()
    ]
    assert any(len(cores) > len(ms) for ms, cores in spread)
    assert any(len(ms) == len(machines) for ms, _ in spread)


def test_table5_platforms_hold_one_handler_per_distinct_instruction():
    handlers = set()
    instrs = set()
    total = 0
    for benchmark in sorted(ALL_BENCHMARKS):
        platform = MixedModePlatform(benchmark, machine_config=CFG, scale=SCALE)
        for thread in _threads(platform.machine):
            handlers.update(thread.handlers)
            instrs.update(thread.program.instrs)
            total += len(thread.handlers)
    assert len(handlers) == len(instrs)
    assert total > 10 * len(instrs)
