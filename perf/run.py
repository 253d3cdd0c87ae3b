"""Run the repo-level benchmark (see ``perf/README.md``).

One measured run (the form ``BENCHMARK.json`` names)::

    python3 perf/run.py --workload seu-mix --seed 7 --seconds 10 --trace 0

prints as its last line ``{"correct", "attempted", "failed", "metrics"}``
with the end-to-end metrics (``--trace 0``) or the per-layer metrics of
a traced run (``--trace 1``).

A report (repeats interleaved across workloads, ABCDE ABCDE ..., each in
a fresh subprocess, then one traced run per workload)::

    python3 perf/run.py [--workloads NAME ...] [--repeats 3] [--seed 2015]
                        [--no-trace] [--smoke] [--json perf/out/result.json]

writes every metric's median, quartiles, min, max and count per workload
with a host fingerprint; ``perf/compare.py`` compares two sets of them.
``--write-digests`` regenerates ``perf/digests.json`` (seed 2015, full
and smoke size) and prints the cells whose bytes changed.

The load is one client in one process and one thread submitting cells
one after another (a closed loop): ``ExperimentSpec`` ->
``Session.run`` -> ``dumps_canonical(result.to_dict())``, as
``repro sweep --json`` does.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# run as a script, this directory heads sys.path and its trace.py would
# shadow the standard library's; import the package from the root instead
if sys.path and Path(sys.path[0]).resolve() == HERE:
    sys.path.pop(0)
for entry in (ROOT, ROOT / "src"):
    if str(entry) not in sys.path:
        sys.path.insert(0, str(entry))

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
DIGESTS = HERE / "digests.json"
OUT = HERE / "out"
DEFAULT_SEED = 2015
#: wall-clock limit for one worker subprocess
WORKER_TIMEOUT = 170
#: fresh-session set-ups in a measured run; ``setup_s`` is their median
SETUPS = 3
#: the benchmark's clock: process CPU seconds.  The load is one thread
#: that never blocks, so CPU time is its host time minus what a shared
#: host hands to other tenants.
cpu_clock = time.process_time
#: host-speed probe: a fixed arithmetic loop, timed at every cell and
#: set-up boundary.  Shared hosts also slow the CPU time of a thread by
#: half or more for minutes at a time (neighbours on the same core); the
#: probe slows much alike, so scaling every timing by the probes around
#: it removes most of that drift -- not all: in some slow spells the
#: probe slows more than the simulator.  Measured on a 2-vCPU host:
#: ~10 s windows of one cell varied 23% (quartile distance) in raw CPU
#: time, 3% scaled.
PROBE_LOOPS = 400_000
#: the probe's CPU seconds on the reference host; every reported timing
#: is scaled to it ("seconds on the reference host")
PROBE_REFERENCE_S = 0.022


def probe() -> float:
    """CPU seconds of the host-speed probe loop."""
    start = cpu_clock()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return cpu_clock() - start


# ----------------------------------------------------------------------
# worker side: one measured run in a fresh process
# ----------------------------------------------------------------------
class RunClock:
    """Times every injection/QRR run of a cell from outside the program.

    One wrapper on ``GoldenRun.snapshot_at_or_before`` -- the first call
    of every run, injection or QRR -- notes the time, the injection cycle
    and where the machine stopped the previous run.  A run's host time is
    the CPU time to the next run's start (the last run ends when its
    cell's canonical bytes exist); its simulated cycles are counted from
    the injection point to its end, so the fast-forward distance, which
    snapshot density decides, is not part of the denominator.  Costs one
    call per run of 20 ms or more, in traced and untraced runs alike.
    """

    def __init__(self) -> None:
        self._marks: list[tuple[float, int, int]] = []
        self._machine = None
        self._original = None

    def install(self) -> None:
        from repro.mixedmode.platform import GoldenRun

        original = vars(GoldenRun)["snapshot_at_or_before"]
        marks = self._marks
        clock = self

        def snapshot_at_or_before(golden, cycle):
            marks.append((cpu_clock(), cycle, clock._machine.cycle))
            return original(golden, cycle)

        self._original = original
        GoldenRun.snapshot_at_or_before = snapshot_at_or_before

    def uninstall(self) -> None:
        if self._original is not None:
            from repro.mixedmode.platform import GoldenRun

            GoldenRun.snapshot_at_or_before = self._original

    def begin(self, machine) -> None:
        self._machine = machine
        self._marks.clear()

    def end(self) -> list[tuple[float, int]]:
        """(CPU seconds, simulated cycles) of each run since ``begin``."""
        marks = self._marks
        marks.append((cpu_clock(), None, self._machine.cycle))
        runs = [
            (t1 - t0, end_cycle - inject)
            for (t0, inject, _), (t1, _, end_cycle) in zip(marks, marks[1:])
        ]
        marks.clear()
        return runs


def _blake(text: str) -> str:
    return hashlib.blake2b(text.encode("utf-8"), digest_size=32).hexdigest()


def measure(cfg: dict) -> dict:
    """One run of one workload: set-ups, timed passes, output checks.

    ``cfg``: workload, seed, smoke, traced, setups, seconds (budget for
    set-ups plus passes; at least one pass runs), trace_path.
    """
    import resource

    from repro.api import ExperimentResult, Session
    from repro.api import result as api_result

    from perf import trace as tracing
    from perf.workloads import specs as workload_specs

    specs = workload_specs(cfg["workload"], cfg["seed"], cfg["smoke"])
    clock = RunClock()
    tracer = tracing.Tracer() if cfg["traced"] else None

    def span(name):
        return tracer.span(name) if tracer else contextlib.nullcontext()

    def cell_span(label, machine):
        return tracer.cell(label, machine) if tracer else contextlib.nullcontext()

    # timings are CPU seconds scaled to the reference host by the probes
    # taken right before and right after each measured stretch; wall
    # seconds are kept for the run-time budget and the trace closure
    out: dict = {
        "setup_s": [],
        "pass_s": [],
        "setup_wall_s": [],
        "pass_wall_s": [],
        "probe_s": [],
    }

    def host_probe() -> float:
        seconds = probe()
        out["probe_s"].append(seconds)
        return seconds

    #: cell label -> (scaled CPU seconds, simulated cycles) of every timed run
    cell_runs: dict[str, list] = {spec.label(): [] for spec in specs}

    def run_pass(session) -> tuple[float, float, list]:
        results = []
        cpu_total = wall_total = 0.0
        before = host_probe()
        for spec in specs:
            label = spec.label()
            machine = session.platform(spec).machine
            with cell_span(label, machine):
                clock.begin(machine)
                cpu0, wall0 = cpu_clock(), time.perf_counter()
                try:
                    result = session.run(spec)
                    text = api_result.dumps_canonical(result.to_dict())
                    error = None
                except Exception as exc:  # a failed cell is counted, not fatal
                    import traceback

                    traceback.print_exc(file=sys.stderr)
                    result, text, error = None, None, f"{type(exc).__name__}: {exc}"
                cpu, wall = cpu_clock() - cpu0, time.perf_counter() - wall0
                runs = clock.end()
            after = host_probe()
            scale = 2.0 * PROBE_REFERENCE_S / (before + after)
            cell_runs[label].extend((s * scale, cycles) for s, cycles in runs)
            cpu_total += cpu * scale
            wall_total += wall
            results.append((spec, result, text, error))
            before = after
        return cpu_total, wall_total, results

    budget_start = time.perf_counter()
    clock.install()
    try:
        if tracer is not None:
            tracer.install()
        with span("run"):
            session = None
            for _ in range(cfg["setups"]):
                session = None
                gc.collect()
                before = host_probe()
                cpu0, wall0 = cpu_clock(), time.perf_counter()
                with span("setup"):
                    session = Session()
                    for spec in specs:
                        session.platform(spec)
                cpu, wall = cpu_clock() - cpu0, time.perf_counter() - wall0
                after = host_probe()
                out["setup_s"].append(cpu * 2.0 * PROBE_REFERENCE_S / (before + after))
                out["setup_wall_s"].append(wall)
            platforms = session.platforms()
            gc.collect()
            cpu, wall, first = run_pass(session)
            out["pass_s"].append(cpu)
            out["pass_wall_s"].append(wall)
        out["machine_cycles"] = sum(p.machine.cycles_advanced for p in platforms)
        out["runs_pass1"] = sum(len(runs) for runs in cell_runs.values())
        nondeterministic = set()
        while not cfg["traced"]:
            elapsed = time.perf_counter() - budget_start
            if elapsed + out["pass_wall_s"][-1] > cfg["seconds"]:
                break
            cpu, wall, again = run_pass(session)
            out["pass_s"].append(cpu)
            out["pass_wall_s"].append(wall)
            for (spec, _, text, _), (_, _, text2, _) in zip(first, again):
                if text != text2:
                    nondeterministic.add(spec.label())
        # prefix re-run: a one-run spec draws the same first injection as
        # the full cell, so on the warm platform its record must equal the
        # cell's first record -- checks that no state leaks across runs
        prefix = {}
        if not cfg["traced"]:
            for spec, result, _, _ in first:
                if result is None:
                    continue
                clock.begin(session.platform(spec).machine)
                again = session.run(spec.with_(n=1))
                prefix[spec.label()] = (
                    again.records[0].to_dict() == result.records[0].to_dict()
                    and again.golden_cycles == result.golden_cycles
                )
    finally:
        out["patch_problems"] = tracer.uninstall() if tracer is not None else []
        clock.uninstall()

    cells = []
    for spec, result, text, error in first:
        label = spec.label()
        cell = {"label": label, "n": spec.n, "error": error}
        if text is not None:
            cell["digest"] = _blake(text)
            cell["records"] = len(result.records)
            roundtrip = api_result.dumps_canonical(
                ExperimentResult.from_dict(json.loads(text)).to_dict()
            )
            cell["roundtrip"] = roundtrip == text
            cell["deterministic"] = label not in nondeterministic
            if label in prefix:
                cell["prefix"] = prefix[label]
        cells.append(cell)
    out["cells"] = cells
    out["runs"] = cell_runs
    out["golden_cycles"] = sum(p.golden.cycles for p in platforms)
    out["stored_components"] = sum(
        p.golden.snapshots.storage_stats()["components_stored"] for p in platforms
    )
    out["qrr_recovered"] = sum(
        r.recovered is True
        for _, result, _, _ in first
        if result is not None
        for r in result.records
    )
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        total = out["setup_wall_s"][0] + out["pass_wall_s"][0]
        out["trace"] = {
            "metrics": tracer.metrics(),
            "layer_self_s": dict(sorted(tracer.layer_self.items())),
            "closure": tracer.program_self_s() / total,
            "span_problems": tracing.check_spans(tracer.spans)[:20],
            "spans": len(tracer.spans),
        }
        if cfg["trace_path"]:
            Path(cfg["trace_path"]).parent.mkdir(parents=True, exist_ok=True)
            tracer.write(cfg["trace_path"])
    return out


# ----------------------------------------------------------------------
# parent side: spawn workers, check outputs, derive metrics
# ----------------------------------------------------------------------
def spawn(cfg: dict) -> dict:
    """Run :func:`measure` in a fresh interpreter; its last line is JSON."""
    env = dict(os.environ)
    env.pop("REPRO_OBS", None)  # telemetry stays off, as users run it
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--worker", json.dumps(cfg)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=WORKER_TIMEOUT,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(
            f"perf: worker for {cfg['workload']} failed ({proc.returncode})"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def load_digests() -> dict:
    return json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}


def expected_digests(workload: str, seed: int, smoke: bool) -> "dict | None":
    """Frozen digests for the cells, or ``None`` when the seed is not the
    frozen one (the digest check then reports ``unchecked``)."""
    if seed != DEFAULT_SEED:
        return None
    return load_digests().get("smoke" if smoke else "full", {}).get(workload, {})


def cell_failures(cells: list, expected: "dict | None") -> list[str]:
    """One entry per failing cell.

    A cell fails when it raised, when its record count is not its ``n``,
    when its bytes do not survive a schema round trip, when a repeat pass
    or its one-run prefix re-run disagrees with it, or -- with frozen
    digests given -- when its canonical bytes miss the frozen digest.
    """
    failures = []
    for cell in cells:
        label = cell["label"]
        if cell["error"] is not None:
            problem = cell["error"]
        elif cell["records"] != cell["n"]:
            problem = f"{cell['records']} records for n={cell['n']}"
        elif not cell["roundtrip"]:
            problem = "bytes change in a schema round trip"
        elif not cell.get("deterministic", True):
            problem = "a repeat pass produced other bytes"
        elif not cell.get("prefix", True):
            problem = "the one-run prefix re-run differs"
        elif expected is not None and expected.get(label) != cell["digest"]:
            problem = "canonical bytes miss the frozen digest"
        else:
            continue
        failures.append(f"{label}: {problem}")
    return failures


def run_us_per_cycle(cell_runs: dict) -> float:
    """Host microseconds per simulated cycle of a typical run: the
    geometric mean over runs within each cell, then over cells.

    Geometric means, because one cell's runs differ up to sevenfold in
    cost per cycle (an RTL crossbar injected during a traffic burst or
    an idle stretch) and a median jumps between such modes from seed to
    seed; per cell, so every cell weighs the same whatever its cost.
    """
    cells = [
        statistics.fmean(math.log(s * 1e6 / cycles) for s, cycles in runs)
        for runs in cell_runs.values()
        if runs
    ]
    return math.exp(statistics.fmean(cells))


def e2e_metrics(res: dict) -> dict:
    """End-to-end values of one untraced run (names as in BENCHMARK.json)."""
    runs = sum(cell["n"] for cell in res["cells"])
    passes = len(res["pass_s"])
    return {
        "setup_s": statistics.median(res["setup_s"]),
        "run_us_per_cycle": run_us_per_cycle(res["runs"]),
        "peak_rss_mb": res["peak_rss_mb"],
        # reported next to the bounded metrics, not bounded themselves:
        # they swing with the sampled injections from seed to seed
        "runs_per_s": runs * passes / sum(res["pass_s"]),
        "total_s": statistics.median(res["setup_s"]) + res["pass_s"][0],
    }


EXTRA_UNITS = {
    "runs_per_s": "runs/s",
    "total_s": "s",
    "cells": "cells",
    "cells_failed": "cells",
}


def exact_counts(res: dict) -> dict:
    """Simulated-work counts both a traced and an untraced run report."""
    return {
        "machine.cycles": res["machine_cycles"],
        "platform.golden_cycles": res["golden_cycles"],
        "platform.runs": res["runs_pass1"],
        "api.cells": len(res["cells"]),
    }


def per_layer_metrics(traced: dict, untraced: list) -> dict:
    """Per-layer values: the traced run's, plus the latency and speed
    numbers that come from untraced runs (tracing would inflate them)."""
    out = dict(traced["trace"]["metrics"])
    out.update(exact_counts(traced))
    latencies = []
    speeds = []
    totals = []
    for res in untraced:
        ms = [s * 1e3 for runs in res["runs"].values() for s, _ in runs]
        q = statistics.quantiles(ms, n=10) if len(ms) > 1 else ms * 9
        latencies.append((statistics.median(ms), q[8]))
        total = e2e_metrics(res)["total_s"]
        totals.append(total)
        speeds.append(res["machine_cycles"] / total)
    out["platform.run_ms_p50"] = statistics.median([p50 for p50, _ in latencies])
    out["platform.run_ms_p90"] = statistics.median([p90 for _, p90 in latencies])
    out["machine.cycles_per_s"] = statistics.median(speeds)
    out["snapshots.stored_components"] = traced["stored_components"]
    out["qrr.recovered"] = traced["qrr_recovered"]
    traced_total = traced["setup_s"][0] + traced["pass_s"][0]
    out["trace.overhead"] = traced_total / statistics.median(totals) - 1.0
    return out


def trace_failures(
    workload: str, traced: dict, untraced: dict, smoke: bool, seed: int
) -> list[str]:
    """Checks that make a traced run trustworthy (empty = all hold)."""
    failures = cell_failures(traced["cells"], expected_digests(workload, seed, smoke))
    plain = {cell["label"]: cell.get("digest") for cell in untraced["cells"]}
    for cell in traced["cells"]:
        if cell.get("digest") != plain.get(cell["label"]):
            failures.append(f"{cell['label']}: traced bytes differ from untraced")
    info = traced["trace"]
    if abs(1.0 - info["closure"]) > 0.05:
        failures.append(
            f"layer self times cover {info['closure']:.1%} of traced total_s"
        )
    failures += [f"not restored: {name}" for name in traced["patch_problems"]]
    failures += info["span_problems"]
    if exact_counts(traced) != exact_counts(untraced):
        failures.append("exact counts differ between traced and untraced runs")
    return failures


def _units(section: str) -> dict:
    return {m["name"]: m["unit"] for m in BENCHMARK[section]}


def worker_cfg(
    workload, seed, smoke, seconds, traced=False, setups=None, trace_path=None
) -> dict:
    """A :func:`measure` configuration; smoke and traced runs set up once."""
    known = {w["name"] for w in BENCHMARK["workloads"]}
    if workload not in known:
        raise SystemExit(f"perf: unknown workload {workload!r}; known: {sorted(known)}")
    if setups is None:
        setups = 1 if smoke or traced else SETUPS
    return {
        "workload": workload,
        "seed": seed,
        "smoke": smoke,
        "traced": traced,
        "setups": setups,
        "seconds": seconds,
        "trace_path": trace_path,
    }


# ----------------------------------------------------------------------
# the measured-run form
# ----------------------------------------------------------------------
def run_one(args) -> int:
    units = _units("end_to_end" if args.trace == 0 else "per_layer")
    workload, seed, smoke = args.workload, args.seed, args.smoke
    expected = expected_digests(workload, seed, smoke)
    if args.trace == 0:
        res = spawn(worker_cfg(workload, seed, smoke, args.seconds))
        failures = cell_failures(res["cells"], expected)
        attempted = len(res["cells"])
        values = e2e_metrics(res)
    else:
        plain = spawn(worker_cfg(workload, seed, smoke, 0, setups=1))
        trace_path = str(OUT / f"{workload}.trace.jsonl")
        traced = spawn(
            worker_cfg(workload, seed, smoke, 0, traced=True, trace_path=trace_path)
        )
        failures = cell_failures(plain["cells"], expected)
        failures += trace_failures(workload, traced, plain, smoke, seed)
        attempted = len(plain["cells"]) + len(traced["cells"])
        values = per_layer_metrics(traced, [plain])
    for failure in failures:
        print(f"FAILED {failure}", file=sys.stderr)
    metrics = {
        name: {"value": values[name], "unit": unit} for name, unit in units.items()
    }
    status = "checked" if expected is not None else "unchecked"
    print(f"perf {workload} seed={seed} digests={status} failed={len(failures)}")
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": attempted,
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


# ----------------------------------------------------------------------
# the report form
# ----------------------------------------------------------------------
def fingerprint() -> dict:
    model = "?"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cpu_model": model,
        "python": platform.python_version(),
    }


def summarize(values: list) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {
        "median": statistics.median(values),
        "q1": q[0],
        "q3": q[2],
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def report(args) -> int:
    e2e_units = _units("end_to_end")
    layer_units = _units("per_layer")
    names = args.workloads or [w["name"] for w in BENCHMARK["workloads"]]
    seed, smoke = args.seed, args.smoke
    doc = {
        "started": time.time(),
        "seed": seed,
        "smoke": smoke,
        "seconds": args.seconds,
        "repeats": args.repeats,
        "host": fingerprint(),
        "loadavg_start": os.getloadavg(),
        "sizes": {},
        "workloads": {},
    }
    untraced = {name: [] for name in names}
    for _ in range(args.repeats):
        for name in names:
            untraced[name].append(spawn(worker_cfg(name, seed, smoke, args.seconds)))
    out_dir = Path(args.json).parent
    for name in names:
        runs = untraced[name]
        expected = expected_digests(name, seed, smoke)
        failures = [f for res in runs for f in cell_failures(res["cells"], expected)]
        values = {}
        for res in runs:
            for key, value in e2e_metrics(res).items():
                values.setdefault(key, []).append(value)
        values["cells"] = [len(res["cells"]) for res in runs]
        values["cells_failed"] = [
            len(cell_failures(res["cells"], expected)) for res in runs
        ]
        entry = {
            "metrics": {
                key: {"unit": e2e_units.get(key) or EXTRA_UNITS[key], **summarize(v)}
                for key, v in values.items()
            },
            "digests": "checked" if expected is not None else "unchecked",
            "cells": runs[0]["cells"],
            "failures": failures,
            "exact": {"untraced": exact_counts(runs[0])},
        }
        doc["sizes"][name] = {
            "cells": [cell["label"] for cell in runs[0]["cells"]],
            "runs_per_pass": sum(cell["n"] for cell in runs[0]["cells"]),
        }
        if not args.no_trace:
            trace_path = str(out_dir / f"{name}.trace.jsonl")
            traced = spawn(
                worker_cfg(name, seed, smoke, 0, traced=True, trace_path=trace_path)
            )
            layer = per_layer_metrics(traced, runs)
            entry["per_layer"] = {
                key: {"value": layer[key], "unit": unit}
                for key, unit in layer_units.items()
            }
            entry["exact"]["traced"] = exact_counts(traced)
            entry["layer_self_s"] = traced["trace"]["layer_self_s"]
            entry["closure"] = traced["trace"]["closure"]
            entry["trace_failures"] = trace_failures(name, traced, runs[0], smoke, seed)
            entry["trace_file"] = trace_path
        doc["workloads"][name] = entry
    doc["loadavg_end"] = os.getloadavg()
    Path(args.json).parent.mkdir(parents=True, exist_ok=True)
    Path(args.json).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    bad = 0
    for name, entry in doc["workloads"].items():
        print(f"== {name} (digests {entry['digests']})")
        for key, m in entry["metrics"].items():
            print(
                f"  {key:<28} {m['median']:>14.6g} {m['unit']:<9}"
                f" q1={m['q1']:.6g} q3={m['q3']:.6g} n={m['n']}"
            )
        for key, m in entry.get("per_layer", {}).items():
            print(f"  {key:<28} {m['value']:>14.6g} {m['unit']}")
        for failure in entry["failures"] + entry.get("trace_failures", []):
            print(f"  FAILED {failure}")
            bad += 1
    print(f"perf: report written to {args.json}")
    return 1 if bad else 0


def write_digests(args) -> int:
    if args.seed != DEFAULT_SEED:
        raise SystemExit(f"perf: digests are frozen at seed {DEFAULT_SEED}")
    stored = load_digests()
    names = args.workloads or [w["name"] for w in BENCHMARK["workloads"]]
    for size, smoke in (("full", False), ("smoke", True)):
        for name in names:
            res = spawn(worker_cfg(name, DEFAULT_SEED, smoke, 0, setups=1))
            broken = cell_failures(res["cells"], None)
            if broken:
                raise SystemExit(
                    "perf: not freezing failing cells:\n" + "\n".join(broken)
                )
            new = {cell["label"]: cell["digest"] for cell in res["cells"]}
            old = stored.setdefault(size, {}).get(name, {})
            for label in sorted(set(old) | set(new)):
                if old.get(label) != new.get(label):
                    print(f"changed {size} {name} {label}")
            stored[size][name] = new
    DIGESTS.write_text(json.dumps(stored, indent=2, sort_keys=True) + "\n")
    print(f"perf: wrote {DIGESTS.relative_to(ROOT)}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--worker", help=argparse.SUPPRESS)
    parser.add_argument("--workload", help="one measured run of this workload")
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument(
        "--workloads", nargs="+", help="report: workloads (default all)"
    )
    parser.add_argument("--repeats", type=int, default=3)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument(
        "--seconds",
        type=float,
        default=BENCHMARK["run_seconds"],
        help="time budget of one measured run (set-ups plus passes)",
    )
    parser.add_argument("--no-trace", action="store_true")
    parser.add_argument("--smoke", action="store_true", help="one benchmark, n=1")
    parser.add_argument("--json", default=str(OUT / "result.json"))
    parser.add_argument("--write-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.worker:
        print(json.dumps(measure(json.loads(args.worker))))
        return 0
    if args.write_digests:
        return write_digests(args)
    if args.workload is not None or args.trace is not None:
        if args.workload is None or args.trace is None:
            parser.error("a measured run needs both --workload and --trace")
        return run_one(args)
    return report(args)


if __name__ == "__main__":
    sys.exit(main())
