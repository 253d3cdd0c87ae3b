"""Span tracer for the benchmark's traced run.

For one run, :class:`Tracer` replaces public functions of the program at
class or module level with timing wrappers, and :meth:`Tracer.uninstall`
(called from a ``finally``) puts the original objects back.  Nothing in
``src/`` changes; untraced runs never see a wrapper.

Recording rules:

* coarse boundaries (workload build, golden run, injection run, restore,
  RTL attach, ...) become in-memory spans: name, layer, start, end,
  parent span and cell;
* per-cycle boundaries (machine step, RTL tick, golden compare) are
  aggregated into a call count and total seconds, per boundary and per
  enclosing span, so they cost no span record;
* a boundary's self time is its duration minus the wrapped calls nested
  in it, summed per layer;
* run phases follow the boundary sequence of each run: the snapshot
  lookup starts ``restore``, ``Machine.restore`` returning starts
  ``fast_forward``, the first ``run_until_cycle`` returning starts
  ``quiesce_attach``, the RTL attach returning starts ``warmup``,
  applying the fault starts ``cosim``, the hand-back (``detach``) starts
  ``phase3``, and ``Machine.run`` or the abandoning ``release`` returning
  ends the run.  ``machine.cycles_advanced`` is read at every change, so
  each phase gets exact simulated cycles next to its host seconds.

:meth:`Tracer.write` stores the spans as JSON lines that
:func:`repro.obs.to_chrome` converts for ``chrome://tracing``/Perfetto.
"""

from __future__ import annotations

import functools
import time
from collections import Counter

PHASES = ("restore", "fast_forward", "quiesce_attach", "warmup", "cosim", "phase3")

#: the benchmark's own spans (set-up, cells); not a program layer
BENCH = "bench"


class Tracer:
    """Wraps program boundaries for one run and accounts their time."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        #: boundary name -> [calls, inclusive seconds, self seconds]
        self.totals: dict[str, list] = {}
        self.layer_self: dict[str, float] = {}
        self.phase_s = dict.fromkeys(PHASES, 0.0)
        self.phase_cycles = dict.fromkeys(PHASES, 0)
        #: ``CosimResult.ended_by`` of every injection run
        self.ended_by: Counter = Counter()
        self._frames: list[list] = []  # open boundaries: [child s, span]
        self._open: list[dict] = []  # open spans, innermost last
        self._patches: list[tuple] = []
        self._phase: "tuple | None" = None  # (name, t0, cycles0, parent id)
        self._machine = None
        self._cell: "str | None" = None

    # ------------------------------------------------------------------
    # installation
    # ------------------------------------------------------------------
    def install(self) -> None:
        from repro.api import result, session
        from repro.faults.models import FaultModel
        from repro.mixedmode import adapters, platform
        from repro.qrr import servers
        from repro.system.machine import Machine
        from repro.system.snapshots import SnapshotChain

        rtl = (
            adapters.L2cCosimAdapter,
            adapters.McuCosimAdapter,
            adapters.CcxCosimAdapter,
            adapters.PcieCosimAdapter,
        )
        qrr = (servers.QrrL2cServer, servers.QrrMcuServer)
        span, agg = self._span, self._agg
        to_warmup = self._move("quiesce_attach", "warmup")
        to_cosim = self._move("warmup", "cosim")
        to_phase3 = self._move("cosim", "phase3")
        to_end = self._move("cosim", None)
        run_done = self._move("phase3", None)
        try:
            span(platform, "build_workload", "workloads.build", "workloads")
            span(platform, "compute_golden", "platform.golden", "platform")
            span(platform.MixedModePlatform, "__init__", "platform.build", "platform")
            span(
                platform.MixedModePlatform,
                "run_injection",
                "platform.run",
                "platform",
                leave=self._ended,
            )
            span(platform, "make_adapter", "rtl.make_adapter", "rtl")
            for cls in rtl:
                agg(cls, "tick", "rtl.tick", "rtl")
                span(cls, "attach", "rtl.attach", "rtl", leave=to_warmup)
                span(cls, "detach", "rtl.detach", "rtl", leave=to_phase3)
                span(cls, "release", "rtl.release", "rtl", leave=to_end)
            agg(adapters.CcxCosimAdapter, "deliver_pcx", "rtl.tick", "rtl")
            agg(adapters.CcxCosimAdapter, "deliver_cpx", "rtl.tick", "rtl")
            agg(adapters.CosimAdapterBase, "compare", "rtl.compare", "rtl")
            for cls in qrr:
                agg(cls, "tick", "qrr.tick", "qrr")
                span(cls, "attach", "qrr.attach", "qrr", leave=to_warmup)
                span(cls, "inject", "qrr.inject", "qrr", enter=to_cosim)
                span(cls, "detach", "qrr.detach", "qrr", leave=to_phase3)
            # Machine.__init__ binds one of these as the instance's step()
            for stepper in ("_step_event", "_step_event_compiled", "_step_reference"):
                agg(Machine, stepper, "machine.step", "machine")
            span(
                Machine,
                "restore",
                "machine.restore",
                "machine",
                leave=self._move("restore", "fast_forward"),
            )
            span(
                Machine,
                "run_until_cycle",
                "machine.run_until_cycle",
                "machine",
                leave=self._move("fast_forward", "quiesce_attach"),
            )
            span(Machine, "run", "machine.run", "machine", leave=run_done)
            span(Machine, "advance_until", "machine.advance_until", "machine")
            span(SnapshotChain, "checkpoint", "snapshots.checkpoint", "snapshots")
            span(
                SnapshotChain,
                "__getitem__",
                "snapshots.get",
                "snapshots",
                enter=lambda _args: self._phase_to("restore"),
            )
            agg(SnapshotChain, "_materialize", "snapshots.materialize", "snapshots")
            span(FaultModel, "sample_event", "faults.sample", "faults")
            span(FaultModel, "apply_event", "faults.apply", "faults", enter=to_cosim)
            span(session.Session, "run", "api.cell", "api")
            span(result, "dumps_canonical", "api.serialize", "api")
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self) -> list[str]:
        """Restore every patched attribute; returns those still not the
        original object afterwards (empty when all came back)."""
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        return [
            f"{getattr(owner, '__name__', owner)}.{attr}"
            for owner, attr, original in self._patches
            if vars(owner).get(attr) is not original
        ]

    def _span(self, owner, attr, name, layer, enter=None, leave=None) -> None:
        """Record every call of ``owner.attr`` as a span; ``enter`` gets
        the call's arguments first, ``leave`` its result afterwards."""
        self._patch(
            owner,
            attr,
            name,
            layer,
            lambda fn: self._span_wrapper(fn, name, layer, enter, leave),
        )

    def _agg(self, owner, attr, name, layer) -> None:
        """Add every call of ``owner.attr`` to its enclosing span's counts."""
        self._patch(
            owner, attr, name, layer, lambda fn: self._agg_wrapper(fn, name, layer)
        )

    def _patch(self, owner, attr, name, layer, make_wrapper) -> None:
        original = vars(owner)[attr]
        self.totals.setdefault(name, [0, 0.0, 0.0])
        self.layer_self.setdefault(layer, 0.0)
        setattr(owner, attr, functools.wraps(original)(make_wrapper(original)))
        self._patches.append((owner, attr, original))

    # ------------------------------------------------------------------
    # wrappers
    # ------------------------------------------------------------------
    def _span_wrapper(self, fn, name, layer, enter, leave):
        tracer = self

        def wrapper(*args, **kwargs):
            if enter is not None:
                enter(args)
            frame = tracer._push(name, layer)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._pop(frame)
            if leave is not None:
                leave(result)
            return result

        return wrapper

    def _agg_wrapper(self, fn, name, layer):
        frames = self._frames
        opened = self._open
        total = self.totals[name]
        layer_self = self.layer_self
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            frame = [0.0, None]
            frames.append(frame)
            t0 = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - t0
                frames.pop()
                if frames:
                    frames[-1][0] += dur
                own = dur - frame[0]
                total[0] += 1
                total[1] += dur
                total[2] += own
                layer_self[layer] += own
                if opened:
                    calls = opened[-1]["calls"]
                    entry = calls.get(name)
                    if entry is None:
                        calls[name] = [1, dur]
                    else:
                        entry[0] += 1
                        entry[1] += dur

        return wrapper

    def _push(self, name: str, layer: str) -> list:
        span = {
            "id": len(self.spans),
            "name": name,
            "layer": layer,
            "parent": self._open[-1]["id"] if self._open else None,
            "cell": self._cell,
            "calls": {},
        }
        self.spans.append(span)
        self._open.append(span)
        frame = [0.0, span]
        self._frames.append(frame)
        span["t0"] = time.perf_counter()
        return frame

    def _pop(self, frame: list) -> None:
        span = frame[1]
        if self._phase is not None and self._phase[3] == span["id"]:
            self._phase_to(None)
        t1 = time.perf_counter()
        dur = t1 - span["t0"]
        own = dur - frame[0]
        span["t1"] = t1
        span["self"] = own
        self._frames.pop()
        self._open.pop()
        if self._frames:
            self._frames[-1][0] += dur
        total = self.totals.setdefault(span["name"], [0, 0.0, 0.0])
        total[0] += 1
        total[1] += dur
        total[2] += own
        layer = span["layer"]
        self.layer_self[layer] = self.layer_self.get(layer, 0.0) + own

    # ------------------------------------------------------------------
    # run phases
    # ------------------------------------------------------------------
    def _phase_to(self, name: "str | None") -> None:
        now = time.perf_counter()
        cycles = self._machine.cycles_advanced
        if self._phase is not None:
            old, t0, c0, parent = self._phase
            self.phase_s[old] += now - t0
            self.phase_cycles[old] += cycles - c0
            self.spans.append(
                {
                    "id": len(self.spans),
                    "name": "phase." + old,
                    "layer": "phase",
                    "parent": parent,
                    "cell": self._cell,
                    "t0": t0,
                    "t1": now,
                    "cycles": cycles - c0,
                }
            )
        parent = self._open[-1]["id"] if self._open else None
        self._phase = None if name is None else (name, now, cycles, parent)

    def _move(self, src: str, dst: "str | None"):
        """A hook moving the run from phase ``src`` to ``dst``."""

        def hook(_arg) -> None:
            if self._phase is not None and self._phase[0] == src:
                self._phase_to(dst)

        return hook

    def _ended(self, run) -> None:
        self.ended_by[run.cosim.ended_by] += 1

    # ------------------------------------------------------------------
    # the benchmark's own spans
    # ------------------------------------------------------------------
    def span(self, name: str) -> "_BenchSpan":
        """A benchmark-level span (set-up, whole run)."""
        return _BenchSpan(self, name, None, None)

    def cell(self, label: str, machine) -> "_BenchSpan":
        """The span of one cell; ``machine`` is the one its runs drive."""
        return _BenchSpan(self, "cell", label, machine)

    # ------------------------------------------------------------------
    # results
    # ------------------------------------------------------------------
    def metrics(self) -> dict:
        """The per-layer metrics the trace itself measures."""
        t = self.totals

        def calls(name):
            return t[name][0]

        def secs(name):
            return t[name][1]

        out = {
            "rtl.tick_s": secs("rtl.tick"),
            "rtl.tick_calls": calls("rtl.tick"),
            "rtl.compare_s": secs("rtl.compare"),
            "rtl.compare_calls": calls("rtl.compare"),
            "rtl.attach_s": secs("rtl.make_adapter") + secs("rtl.attach"),
            "rtl.attaches": calls("rtl.attach"),
            "cosim.vanished": self.ended_by["vanished"],
            "cosim.handover": self.ended_by["handover"],
            "cosim.cap": self.ended_by["cap"],
            "cosim.trap": self.ended_by["trap_during_cosim"],
            "platform.golden_s": secs("platform.golden"),
            "machine.step_calls": calls("machine.step"),
            "machine.step_self_s": t["machine.step"][2],
            "machine.run_s": secs("machine.run"),
            "machine.restores": calls("machine.restore"),
            "machine.restore_s": secs("machine.restore"),
            "snapshots.checkpoints": calls("snapshots.checkpoint"),
            "snapshots.checkpoint_s": secs("snapshots.checkpoint"),
            "snapshots.materialized": calls("snapshots.materialize"),
            "snapshots.materialize_s": secs("snapshots.materialize"),
            "qrr.tick_s": secs("qrr.tick"),
            "qrr.tick_calls": calls("qrr.tick"),
            "faults.sample_s": secs("faults.sample"),
            "faults.apply_s": secs("faults.apply"),
            "workloads.build_s": secs("workloads.build"),
            "api.cells": calls("api.cell"),
            "api.serialize_s": secs("api.serialize"),
        }
        for phase in PHASES:
            out[f"phase.{phase}_s"] = self.phase_s[phase]
            out[f"phase.{phase}_cycles"] = self.phase_cycles[phase]
        return out

    def program_self_s(self) -> float:
        """Self seconds summed over the program's layers (bench excluded)."""
        return sum(v for k, v in self.layer_self.items() if k != BENCH)

    def write(self, path) -> None:
        """Write every span as a JSON line (the ``repro.obs`` trace form)."""
        from repro.obs.trace import TraceWriter

        with TraceWriter(path) as writer:
            for span in self.spans:
                args = {"id": span["id"], "parent": span["parent"]}
                if span["cell"] is not None:
                    args["cell"] = span["cell"]
                if "cycles" in span:
                    args["cycles"] = span["cycles"]
                else:
                    args["self"] = span["self"]
                if span.get("calls"):
                    args["calls"] = span["calls"]
                writer.emit(
                    {
                        "ph": "X",
                        "name": span["name"],
                        "cat": span["layer"],
                        "ts": span["t0"],
                        "dur": span["t1"] - span["t0"],
                        "pid": writer.pid,
                        "args": args,
                    }
                )


class _BenchSpan:
    def __init__(self, tracer: Tracer, name, label, machine) -> None:
        self._tracer = tracer
        self._name = name
        self._label = label
        self._machine = machine
        self._frame = None

    def __enter__(self) -> "_BenchSpan":
        tracer = self._tracer
        if self._machine is not None:
            tracer._cell = self._label
            tracer._machine = self._machine
        self._frame = tracer._push(self._name, BENCH)
        return self

    def __exit__(self, *exc) -> None:
        self._tracer._pop(self._frame)
        if self._machine is not None:
            self._tracer._cell = None


def check_spans(spans, tolerance: float = 1e-9) -> list[str]:
    """Nesting and self-time problems in a span list (empty = sound).

    Every span must lie inside its parent's interval and no boundary's
    self time may be negative.
    """
    by_id = {span["id"]: span for span in spans}
    problems = []
    for span in spans:
        if span.get("self", 0.0) < -tolerance:
            problems.append(f"span {span['id']} {span['name']}: negative self time")
        parent = by_id.get(span["parent"]) if span["parent"] is not None else None
        if span["parent"] is not None and parent is None:
            problems.append(f"span {span['id']} {span['name']}: unknown parent")
        elif parent is not None and (
            span["t0"] < parent["t0"] - tolerance
            or span["t1"] > parent["t1"] + tolerance
        ):
            problems.append(
                f"span {span['id']} {span['name']}: outside parent {parent['name']}"
            )
    return problems
