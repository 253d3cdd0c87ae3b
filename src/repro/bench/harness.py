"""Cycle-engine benchmark scenarios and the canonical BENCH JSON.

Four scenarios cover the hot paths of the reproduction, each timed under
both cycle engines (``event`` -- the default activity-tracked engine --
and ``reference`` -- the everything-every-cycle baseline stepper):

* ``golden``: the error-free reference run with periodic (delta)
  snapshots -- phase-1 setup of every platform.
* ``injection``: one L2C injection-campaign cell (restore, replay,
  co-simulate, classify) on a shared platform.
* ``qrr``: one QRR recovery-campaign cell.
* ``sweep``: a small injection grid through the experiment API's serial
  executor, platform construction included.

Two further scenarios are *fabric* comparisons rather than engine rows:
``cluster`` runs the same grid through the serial executor and through
a 2-worker localhost cluster (:mod:`repro.cluster`) with a fresh result
bus per repeat, reporting cells/sec for each and the scaling ratio; and
``serve`` load-tests the campaign daemon (:mod:`repro.serve`) over real
localhost HTTP -- a cold grid run end to end (cells/sec) plus a warm
phase of concurrent clients re-asking for the done job's results
(requests/sec, p50/p95 request latency).

Throughput is reported as simulated cycles per wall-clock second;
``Machine.cycles_advanced`` counts every advanced cycle including the
event engine's one-hop idle skips, so all engines are measured against
the same denominator.  Each scenario runs ``repeats`` times and keeps
the best (the host's scheduling noise is substantial).

Schema v2 added per-engine golden ``phases`` breakdowns.  Schema v3
keeps ``seconds`` = best (so baseline comparisons stay valid across the
bump) and adds a ``spread`` entry per bench -- min/median/max/stdev over
the repeats -- so host noise is visible in the document instead of
silently discarded; :func:`check_against_baseline` flags noisy hosts
from it.  Every engine's timed repeats run bare; the golden phase
breakdown comes from one extra repeat instrumented through
``Machine.instrument_phases`` (the obs span/timer API), which is not
part of ``seconds`` or ``spread``.
"""

from __future__ import annotations

import gc
import json
import os
import platform as _platform
import random
import statistics
import time
import zlib
from dataclasses import dataclass
from pathlib import Path

from repro.api import ExperimentSpec, SerialExecutor, Session, dumps_canonical
from repro.injection.campaign import InjectionCampaign
from repro.mixedmode.platform import CosimConfig, MixedModePlatform, compute_golden
from repro.obs import Timer
from repro.obs.registry import spread
from repro.qrr.campaign import QrrCampaign
from repro.system.machine import DEFAULT_ENGINE, ENGINES, Machine, MachineConfig
from repro.workloads import build_workload

#: Bump when the BENCH JSON layout changes incompatibly.
BENCH_SCHEMA_VERSION = 3

#: The machine geometry campaigns use (matches the CLI defaults).
BENCH_MACHINE = MachineConfig(
    cores=8, threads_per_core=4, l2_banks=8, l2_sets=8, l2_ways=4
)

BENCH_BENCHMARK = "fft"
BENCH_SCALE = 1.0 / 40_000.0
BENCH_SEED = 2015

ALL_SCENARIOS = ("golden", "injection", "qrr", "sweep", "cluster", "serve")


@dataclass(frozen=True)
class BenchSettings:
    """Sizing knobs; ``tiny()`` is the CI smoke configuration."""

    injections: int = 8
    qrr_runs: int = 5
    sweep_runs: int = 2
    repeats: int = 3
    scenarios: tuple = ALL_SCENARIOS
    engines: tuple = ENGINES

    @classmethod
    def tiny(cls) -> "BenchSettings":
        return cls(injections=3, qrr_runs=2, sweep_runs=2, repeats=2)


def _timed(fn, repeats: int) -> tuple[float, list[float], object]:
    """(best seconds, all per-repeat seconds, result of the best repeat)
    over ``repeats`` runs of ``fn``.

    The collector is paused during timed sections (snapshot chains and
    campaign records make generational sweeps expensive and bursty --
    they were the dominant run-to-run noise) and run between repeats.
    Every repeat's time is kept: the schema-v3 ``spread`` entries are
    computed from the full sample list, not just the winner.
    """
    best = None
    best_result = None
    samples: list[float] = []
    gc_was_enabled = gc.isenabled()
    for _ in range(repeats):
        gc.collect()
        gc.disable()
        try:
            t0 = time.perf_counter()
            result = fn()
            elapsed = time.perf_counter() - t0
        finally:
            if gc_was_enabled:
                gc.enable()
        samples.append(elapsed)
        if best is None or elapsed < best:
            best = elapsed
            best_result = result
    return best, samples, best_result


def _throughput(cycles: int, seconds: float) -> dict:
    return {
        "cycles": cycles,
        "seconds": round(seconds, 6),
        "cycles_per_sec": round(cycles / seconds, 1) if seconds else 0.0,
    }


def _bench_golden(engine: str, settings: BenchSettings, log) -> dict:
    image = build_workload(
        BENCH_BENCHMARK,
        threads=BENCH_MACHINE.total_threads,
        scale=BENCH_SCALE,
        seed=BENCH_SEED,
    )
    stats = {}

    def once(phase_timers=None):
        machine = Machine(BENCH_MACHINE, engine=engine)
        machine.load_workload(image)
        if phase_timers is not None:
            machine.instrument_phases(
                uncore=phase_timers[0], snapshot=phase_timers[1]
            )
        before = machine.cycles_advanced
        golden = compute_golden(machine, CosimConfig(), keep_snapshots=True)
        stats["cycles"] = machine.cycles_advanced - before
        if hasattr(golden.snapshots, "storage_stats"):
            stats["snapshots"] = golden.snapshots.storage_stats()

    # every engine is timed bare: the timing shims cost time of their
    # own, and only the event engine would pay it
    seconds, samples, _ = _timed(once, settings.repeats)
    out = _throughput(stats["cycles"], seconds)
    out["spread"] = spread(samples)
    if "snapshots" in stats:
        out["snapshot_storage"] = stats["snapshots"]
    # the reference engine inlines its uncore stage, so no phase split
    # is measurable for it
    if engine != "reference":
        # one extra instrumented repeat (total = its own wall time)
        uncore_t, snapshot_t = Timer("uncore"), Timer("snapshot")
        total, _, _ = _timed(lambda: once((uncore_t, snapshot_t)), 1)
        out["phases"] = {
            "total": round(total, 6),
            "snapshot": round(snapshot_t.seconds, 6),
            "uncore": round(uncore_t.seconds, 6),
            "core_interp": round(
                max(0.0, total - uncore_t.seconds - snapshot_t.seconds), 6
            ),
        }
    log(f"  golden[{engine}]: {out['cycles_per_sec']:,.0f} cycles/s")
    return out


def _campaign_platform(engine: str) -> MixedModePlatform:
    return MixedModePlatform(
        BENCH_BENCHMARK,
        machine_config=BENCH_MACHINE,
        scale=BENCH_SCALE,
        seed=BENCH_SEED,
        engine=engine,
    )


def _bench_injection(engine: str, settings: BenchSettings, log) -> dict:
    plat = _campaign_platform(engine)
    stats = {}

    def once():
        before = plat.machine.cycles_advanced
        InjectionCampaign(plat, "l2c", seed=BENCH_SEED).run(settings.injections)
        stats["cycles"] = plat.machine.cycles_advanced - before

    seconds, samples, _ = _timed(once, settings.repeats)
    out = _throughput(stats["cycles"], seconds)
    out["spread"] = spread(samples)
    out["runs"] = settings.injections
    out["ms_per_run"] = round(seconds / settings.injections * 1e3, 2)
    log(
        f"  injection[{engine}]: {out['cycles_per_sec']:,.0f} cycles/s "
        f"({out['ms_per_run']}ms/run)"
    )
    return out


def _bench_qrr(engine: str, settings: BenchSettings, log) -> dict:
    plat = _campaign_platform(engine)
    stats = {}

    def once():
        before = plat.machine.cycles_advanced
        records = QrrCampaign(plat, "l2c").run(settings.qrr_runs, seed=BENCH_SEED)
        stats["cycles"] = plat.machine.cycles_advanced - before
        stats["recovered"] = sum(1 for r in records if r.recovered)
        return records

    seconds, samples, _ = _timed(once, settings.repeats)
    out = _throughput(stats["cycles"], seconds)
    out["spread"] = spread(samples)
    out["runs"] = settings.qrr_runs
    out["recovered"] = stats["recovered"]
    out["ms_per_run"] = round(seconds / settings.qrr_runs * 1e3, 2)
    log(
        f"  qrr[{engine}]: {out['cycles_per_sec']:,.0f} cycles/s "
        f"({out['ms_per_run']}ms/run)"
    )
    return out


def _bench_sweep(engine: str, settings: BenchSettings, log) -> dict:
    specs = [
        ExperimentSpec(
            benchmark=BENCH_BENCHMARK,
            component=component,
            mode="injection",
            machine=BENCH_MACHINE,
            scale=BENCH_SCALE,
            seed=BENCH_SEED,
            n=settings.sweep_runs,
        )
        for component in ("l2c", "mcu")
    ]
    stats = {}

    def once():
        session = Session(engine=engine)
        SerialExecutor(session).run(specs)
        stats["cycles"] = sum(
            plat.machine.cycles_advanced for plat in session.platforms()
        )

    seconds, samples, _ = _timed(once, settings.repeats)
    out = _throughput(stats["cycles"], seconds)
    out["spread"] = spread(samples)
    out["cells"] = len(specs)
    log(f"  sweep[{engine}]: {out['cycles_per_sec']:,.0f} cycles/s")
    return out


def _bench_cluster(settings: BenchSettings, log) -> dict:
    """Cluster scaling: one grid through the serial executor vs a
    2-worker localhost cluster.

    Not an engine scenario -- the engines already have their own rows;
    this one compares execution *fabrics* on the default engine.  The
    cluster runs without a pinned ``cache_dir``, so every repeat gets a
    fresh private result bus and pays real computation (worker spawn
    included) instead of cache hits; cells/sec is therefore the honest
    end-to-end distributed throughput, launch overhead and all.
    """
    from repro.cluster import ClusterExecutor

    specs = [
        ExperimentSpec(
            benchmark=BENCH_BENCHMARK,
            component=component,
            mode="injection",
            machine=BENCH_MACHINE,
            scale=BENCH_SCALE,
            seed=seed,
            n=settings.sweep_runs,
        )
        for component in ("l2c", "mcu")
        for seed in (BENCH_SEED, BENCH_SEED + 1)
    ]
    cells = len(specs)
    workers = 2

    def _fabric(make_executor_fn) -> dict:
        def once():
            make_executor_fn().run(specs)

        seconds, samples, _ = _timed(once, settings.repeats)
        return {
            "seconds": round(seconds, 6),
            "cells_per_sec": round(cells / seconds, 3) if seconds else 0.0,
            "spread": spread(samples),
        }

    serial = _fabric(SerialExecutor)
    cluster = _fabric(lambda: ClusterExecutor(workers=workers))
    entry = {
        "cells": cells,
        "workers": workers,
        "serial": serial,
        f"cluster_{workers}": cluster,
    }
    if cluster["seconds"]:
        entry["speedup_cluster_vs_serial"] = round(
            serial["seconds"] / cluster["seconds"], 3
        )
    log(
        f"  cluster: serial {serial['cells_per_sec']:.2f} cells/s vs "
        f"{workers}-worker {cluster['cells_per_sec']:.2f} cells/s "
        f"(x{entry.get('speedup_cluster_vs_serial', 0.0):.2f})"
    )
    return entry


def _percentile(samples: list, q: float) -> float:
    """Nearest-rank percentile of a non-empty sample list."""
    ordered = sorted(samples)
    index = min(len(ordered) - 1, max(0, round(q * (len(ordered) - 1))))
    return ordered[index]


def _bench_serve(settings: BenchSettings, log) -> dict:
    """Serve load test: the daemon under concurrent HTTP clients.

    Like ``cluster``, a fabric row rather than an engine row.  Two
    phases against one in-process daemon (real HTTP over localhost):

    * **cold**: one grid submitted and run to completion on an empty
      bus -- end-to-end cells/sec through admission, the journal, and
      the warm pool, executor spawn included.
    * **warm**: concurrent clients hammering submit(dedupe) + result
      fetch for the now-done job -- requests/sec plus p50/p95 request
      latency, i.e. the pure serving overhead once results are durable.
    """
    import tempfile
    import threading

    from repro.serve import CampaignService, ServeClient, make_server

    specs = [
        ExperimentSpec(
            benchmark=BENCH_BENCHMARK,
            component=component,
            mode="injection",
            machine=BENCH_MACHINE,
            scale=BENCH_SCALE,
            seed=seed,
            n=settings.sweep_runs,
        )
        for component in ("l2c", "mcu")
        for seed in (BENCH_SEED, BENCH_SEED + 1)
    ]
    cells = len(specs)
    clients = 4
    requests_per_client = max(5, settings.repeats * 5)
    request = {"specs": [spec.to_dict() for spec in specs]}

    with tempfile.TemporaryDirectory(prefix="repro-bench-serve-") as tmp:
        service = CampaignService(
            Path(tmp) / "state",
            queue_limit=max(16, clients * 2),
            per_client_limit=clients * 2,
        )
        service.start()
        server = make_server(service, host="127.0.0.1", port=0)
        threading.Thread(target=server.serve_forever, daemon=True).start()
        url = f"http://127.0.0.1:{server.server_address[1]}"
        try:
            # cold: empty bus, real compute, one client waiting
            client = ServeClient(url, client_id="bench-cold")
            t0 = time.perf_counter()
            view, _raw = client.run(request, timeout=600.0)
            cold_seconds = time.perf_counter() - t0
            assert view["status"] == "done"
            job_id = view["id"]

            # warm: concurrent clients, dedupe + bus-backed results
            latencies: list[float] = []
            lock = threading.Lock()

            def hammer(worker: int) -> None:
                mine = ServeClient(url, client_id=f"bench-{worker}")
                samples = []
                for _ in range(requests_per_client):
                    t1 = time.perf_counter()
                    resubmit = mine.submit(request)
                    mine.result_bytes(resubmit["id"])
                    samples.append(time.perf_counter() - t1)
                with lock:
                    latencies.extend(samples)

            threads = [
                threading.Thread(target=hammer, args=(i,), daemon=True)
                for i in range(clients)
            ]
            t0 = time.perf_counter()
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
            warm_seconds = time.perf_counter() - t0
            assert service.job(job_id).status == "done"
        finally:
            server.shutdown()
            server.server_close()
            service.close(timeout=30.0)

    total_requests = len(latencies)
    entry = {
        "cells": cells,
        "clients": clients,
        "cold": {
            "seconds": round(cold_seconds, 6),
            "cells_per_sec": round(cells / cold_seconds, 3)
            if cold_seconds else 0.0,
        },
        "warm": {
            "requests": total_requests,
            "seconds": round(warm_seconds, 6),
            "requests_per_sec": round(total_requests / warm_seconds, 3)
            if warm_seconds else 0.0,
            "latency_p50_ms": round(_percentile(latencies, 0.50) * 1e3, 3),
            "latency_p95_ms": round(_percentile(latencies, 0.95) * 1e3, 3),
        },
    }
    log(
        f"  serve: cold {entry['cold']['cells_per_sec']:.2f} cells/s; "
        f"warm {entry['warm']['requests_per_sec']:.1f} req/s from "
        f"{clients} clients (p50 {entry['warm']['latency_p50_ms']:.1f}ms, "
        f"p95 {entry['warm']['latency_p95_ms']:.1f}ms)"
    )
    return entry


_SCENARIO_FNS = {
    "golden": _bench_golden,
    "injection": _bench_injection,
    "qrr": _bench_qrr,
    "sweep": _bench_sweep,
}


def run_benches(
    settings: "BenchSettings | None" = None, log=lambda line: None
) -> dict:
    """Run the scenario x engine matrix; returns the BENCH document."""
    settings = settings if settings is not None else BenchSettings()
    results: dict = {}
    for scenario in settings.scenarios:
        if scenario == "cluster":
            # a fabric comparison, not an engine row: serial vs a
            # 2-worker localhost cluster on the default engine
            log("cluster:")
            results["cluster"] = _bench_cluster(settings, log)
            continue
        if scenario == "serve":
            # also a fabric row: the daemon under concurrent clients
            log("serve:")
            results["serve"] = _bench_serve(settings, log)
            continue
        fn = _SCENARIO_FNS[scenario]
        log(f"{scenario}:")
        entry: dict = {}
        for engine in settings.engines:
            entry[engine] = fn(engine, settings, log)
        if "event" in entry and "reference" in entry:
            base = entry["reference"]["cycles_per_sec"]
            if base:
                entry["speedup_event_vs_reference"] = round(
                    entry["event"]["cycles_per_sec"] / base, 3
                )
        results[scenario] = entry
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "settings": {
            "benchmark": BENCH_BENCHMARK,
            "machine": BENCH_MACHINE.to_dict(),
            "scale": BENCH_SCALE,
            "seed": BENCH_SEED,
            "injections": settings.injections,
            "qrr_runs": settings.qrr_runs,
            "sweep_runs": settings.sweep_runs,
            "repeats": settings.repeats,
        },
        "python": _platform.python_version(),
        "results": results,
    }


def fault_overhead_guard(
    settings: "BenchSettings | None" = None, log=lambda line: None
) -> dict:
    """Measure the fault-subsystem tax on the default injection path.

    Runs the same campaign cell two ways on one shared platform -- a
    frozen replica of the pre-subsystem inline path (the sampling
    arithmetic below is copied verbatim from the seed's inline sampler
    so the baseline cannot silently absorb subsystem costs, plus the
    model-free ``run_injection(event, warmup)`` single-bit flip) and
    :class:`~repro.injection.campaign.InjectionCampaign`'s default
    :class:`~repro.faults.models.SingleBitFlip` model -- and reports the
    relative overhead.  Both paths execute bit-identical simulation
    work, so the ratio isolates the subsystem's dispatch cost; the
    runs interleave (best-of) to cancel host drift.  CI gates this at
    5% (``repro bench --fault-guard``) on the default engine.
    """
    from repro.faults.event import FaultEvent
    from repro.injection.campaign import InjectionCampaign
    from repro.soc.geometry import T2_GEOMETRY

    settings = settings if settings is not None else BenchSettings.tiny()
    engine = DEFAULT_ENGINE
    plat = _campaign_platform(engine)
    component = "l2c"
    nbits = T2_GEOMETRY[component].target_ffs

    def inline():
        rng = random.Random(
            (BENCH_SEED << 16) ^ (zlib.crc32(component.encode()) & 0xFFFF)
        )
        for _ in range(settings.injections):
            # the seed's inline sampler, frozen (l2c branch)
            cycle = rng.randrange(1, max(2, plat.golden.cycles - 1))
            instance = rng.randrange(plat.machine_config.l2_banks)
            bit = rng.randrange(nbits)
            event = FaultEvent("seu", component, instance, cycle, params={"bit": bit})
            plat.run_injection(event, plat.draw_warmup(rng))

    def modeled():
        InjectionCampaign(plat, component, seed=BENCH_SEED).run(
            settings.injections
        )

    # more repeats than the throughput benches: the gate is tight (5%),
    # so the best-of sample needs to beat host scheduling noise
    repeats = max(5, settings.repeats)
    best_inline = best_model = None
    for _ in range(repeats):
        seconds, _, _ = _timed(inline, 1)
        if best_inline is None or seconds < best_inline:
            best_inline = seconds
        seconds, _, _ = _timed(modeled, 1)
        if best_model is None or seconds < best_model:
            best_model = seconds
    overhead = best_model / best_inline - 1.0
    log(
        f"fault guard[{engine}]: inline {best_inline * 1e3:.1f}ms vs model "
        f"{best_model * 1e3:.1f}ms over {settings.injections} runs "
        f"({overhead:+.1%})"
    )
    return {
        "engine": engine,
        "inline_seconds": round(best_inline, 6),
        "model_seconds": round(best_model, 6),
        "runs": settings.injections,
        "overhead": round(overhead, 4),
    }


#: Fewest off/on pairs the obs guard times (its median needs enough
#: pairs that one disturbed pair cannot decide the verdict).
OBS_GUARD_PAIRS = 7


def paired_overhead(off: list[float], on: list[float]) -> float:
    """The median over pairs of ``on[i] / off[i] - 1``.

    Each pair is timed back to back, so slow host drift scales both
    sides of a pair alike and cancels in its ratio; the median then
    ignores the odd pair a scheduling hiccup disturbed.
    """
    if not off or len(off) != len(on):
        raise ValueError("paired timings need equal, non-empty lists")
    return statistics.median(b / a for a, b in zip(off, on)) - 1.0


def obs_overhead_guard(
    settings: "BenchSettings | None" = None,
    log=lambda line: None,
) -> dict:
    """Measure the observability layer's tax on a campaign cell (on the
    default engine, like the fault guard).

    Runs the same L2C injection cell on two platforms built under
    opposite obs states -- one with the layer disabled (null metric
    handles frozen into the machine) and one with it enabled (live
    registry counters, fault accounting, session timers) -- and reports
    the relative overhead of the enabled path.  Both cells execute
    bit-identical simulation work (obs never consumes campaign RNG), so
    the ratio isolates instrumentation cost.  The cells run as at least
    :data:`OBS_GUARD_PAIRS` off/on pairs, alternating which side goes
    first, and the overhead is :func:`paired_overhead` of their
    timings.  CI gates this at 10%
    (``repro bench --obs-guard``).  The obs-*off* budget (<= 2% vs the
    pre-obs code) is enforced separately by the committed-baseline
    throughput gate: the disabled path's only additions are is-None
    checks at coarse chokepoints, which the 30%-tolerance baseline
    comparison would catch long before they cost 2%.

    The process-wide obs state (and ``REPRO_OBS``) is restored on exit.
    """
    from repro import obs

    settings = settings if settings is not None else BenchSettings.tiny()
    engine = DEFAULT_ENGINE
    component = "l2c"
    prev_env = os.environ.get("REPRO_OBS")
    prev_enabled = obs.enabled()
    try:
        obs.disable()
        plat_off = _campaign_platform(engine)
        obs.enable()
        plat_on = _campaign_platform(engine)

        def run_off():
            obs.disable()
            InjectionCampaign(plat_off, component, seed=BENCH_SEED).run(
                settings.injections
            )

        def run_on():
            obs.enable()
            InjectionCampaign(plat_on, component, seed=BENCH_SEED).run(
                settings.injections
            )

        off_s: list[float] = []
        on_s: list[float] = []
        sides = [(run_off, off_s), (run_on, on_s)]
        for _ in range(max(OBS_GUARD_PAIRS, settings.repeats)):
            for run, samples in sides:
                samples.append(_timed(run, 1)[0])
            sides.reverse()
    finally:
        if prev_enabled:
            obs.enable()
        else:
            # the enable was ours: drop the guard's metrics too, so a
            # previously-silent process stays silent
            obs.disable()
            obs.REGISTRY.clear()
        if prev_env is None:
            os.environ.pop("REPRO_OBS", None)
        else:
            os.environ["REPRO_OBS"] = prev_env
    overhead = paired_overhead(off_s, on_s)
    off_median = statistics.median(off_s)
    on_median = statistics.median(on_s)
    log(
        f"obs guard[{engine}]: median off {off_median * 1e3:.1f}ms vs on "
        f"{on_median * 1e3:.1f}ms over {settings.injections} runs, "
        f"{len(off_s)} pairs ({overhead:+.1%})"
    )
    return {
        "engine": engine,
        "off_seconds": round(off_median, 6),
        "on_seconds": round(on_median, 6),
        "runs": settings.injections,
        "overhead": round(overhead, 4),
    }


def save_bench(doc: dict, path: "str | Path") -> Path:
    path = Path(path)
    path.write_text(dumps_canonical(doc) + "\n")
    return path


def host_noise_warnings(doc: dict, threshold: float = 0.10) -> list[str]:
    """Benches whose repeat spread says the host was noisy.

    A bench whose stdev/median exceeds ``threshold`` produced a best-of
    sample that may not be trustworthy -- a regression verdict against
    the baseline should be re-run before being believed.  Advisory only
    (never a CI failure): noise is a property of the host, not the code.
    """
    warnings: list[str] = []
    for scenario, entry in doc.get("results", {}).items():
        for engine in ENGINES:
            engine_entry = entry.get(engine)
            if not isinstance(engine_entry, dict):
                continue
            sp = engine_entry.get("spread")
            if not sp or not sp.get("median"):
                continue
            noise = sp["stdev"] / sp["median"]
            if noise > threshold:
                warnings.append(
                    f"{scenario}[{engine}]: noisy host -- stdev/median "
                    f"{noise:.0%} exceeds {threshold:.0%} "
                    f"(spread {sp['min']:.3f}..{sp['max']:.3f}s); treat "
                    f"baseline comparisons for this bench with suspicion"
                )
    return warnings


def check_against_baseline(
    doc: dict,
    baseline_path: "str | Path",
    tolerance: float = 0.30,
    warn=lambda line: None,
) -> list[str]:
    """Regression check: per-engine cycles/sec must not fall more than
    ``tolerance`` below the committed baseline.  Every engine present in
    the baseline (event, reference) is gated.  Returns failure lines
    (empty when the check passes).  Host-noise findings (see
    :func:`host_noise_warnings`) are reported through ``warn`` without
    failing the check."""
    for line in host_noise_warnings(doc):
        warn(line)
    baseline = json.loads(Path(baseline_path).read_text())
    failures: list[str] = []
    for scenario, entry in baseline.get("results", {}).items():
        current_entry = doc.get("results", {}).get(scenario)
        if current_entry is None:
            continue
        for engine in ENGINES:
            engine_entry = entry.get(engine)
            if not isinstance(engine_entry, dict):
                continue
            base = engine_entry.get("cycles_per_sec")
            if not base:
                continue
            current = current_entry.get(engine, {}).get("cycles_per_sec", 0.0)
            floor = base * (1.0 - tolerance)
            if current < floor:
                failures.append(
                    f"{scenario}[{engine}]: {current:,.0f} cycles/s is more "
                    f"than {tolerance:.0%} below the baseline {base:,.0f}"
                )
    return failures
