"""Command-line interface for the reproduction.

All commands are thin wrappers over the unified experiment API
(:mod:`repro.api`): they compose an :class:`~repro.api.ExperimentSpec`
(or a :class:`~repro.api.Grid` of them), hand it to a
:class:`~repro.api.Session` or executor, and format the canonical
result.

Usage::

    python -m repro.cli campaign --component l2c --benchmark fft --n 200
    python -m repro.cli campaign --fault mbu:k=2 --n 100
    python -m repro.cli qrr --component mcu --n 50 --json -
    python -m repro.cli sweep --n 20 --workers 4 --json out.json
    python -m repro.cli sweep --n 20 --cache-dir .sweep-cache
    python -m repro.cli sweep --n 20 --workers 4 --progress --trace-out t.jsonl
    python -m repro.cli sweep --n 20 --cluster 4 --cache-dir .cluster-bus
    python -m repro.cli sweep --n 20 --cluster 8 --launcher ssh:host1,host2
    python -m repro.cli sweep --n 20 --journal .sweeps/run1
    python -m repro.cli sweep --resume .sweeps/run1
    python -m repro.cli sweep --n 20 --cluster 4 --cell-timeout 60 --max-retries 3
    python -m repro.cli sweep --n 20 --cluster 4 --worker-procs 4
    python -m repro.cli serve --state-dir .serve --port 8750
    python -m repro.cli serve --state-dir .serve --port 0 --queue-limit 16
    python -m repro.cli top http://127.0.0.1:8750/metrics --follow
    python -m repro.cli cache fsck .sweep-cache --repair
    python -m repro.cli faults list
    python -m repro.cli bench --tiny --json BENCH_step.json
    python -m repro.cli bench --fault-guard
    python -m repro.cli bench --obs-guard
    python -m repro.cli top --format prom
    python -m repro.cli tables
    python -m repro.cli run --benchmark p-wc
"""

from __future__ import annotations

import argparse
import dataclasses
import sys
import time

from repro.analysis.tables import (
    table1_highlevel_state,
    table3_inventory,
    table4_targets,
    table5_benchmarks,
)
from repro.api import (
    DEFAULT_SCALE,
    CachingExecutor,
    ExperimentResult,
    ExperimentSpec,
    QRR_COMPONENTS,
    Grid,
    Session,
    dumps_canonical,
    make_executor,
    run_campaign,
    sweep_document,
)
from repro.faults.models import DEFAULT_FAULT
from repro.soc.geometry import UNCORE_TARGETS
from repro.system.machine import MachineConfig
from repro.system.outcome import OUTCOME_ORDER
from repro.utils.render import render_table
from repro.workloads import ALL_BENCHMARKS


def _machine_config(args) -> MachineConfig:
    return MachineConfig(
        cores=args.cores,
        threads_per_core=args.threads_per_core,
        l2_banks=8,
        l2_sets=args.l2_sets,
        l2_ways=args.l2_ways,
    )


class _UserError(Exception):
    """An invalid spec combination the user asked for (exit code 2)."""


def _spec(args, mode: str, component: "str | None" = None) -> ExperimentSpec:
    try:
        return ExperimentSpec(
            benchmark=args.benchmark,
            component=component,
            mode=mode,
            machine=_machine_config(args),
            scale=args.scale,
            seed=args.seed,
            n=getattr(args, "n", 1),
            fault=getattr(args, "fault", None),
        )
    except ValueError as exc:
        raise _UserError(str(exc)) from exc


def _emit_text(text: str, dest: str) -> None:
    """Write JSON text to a file or stdout (``-``)."""
    if dest == "-":
        print(text)
    else:
        with open(dest, "w") as fh:
            fh.write(text + "\n")


def _emit_json(result: ExperimentResult, dest: str) -> None:
    """Write the canonical result JSON to a file or stdout (``-``)."""
    _emit_text(dumps_canonical(result.to_dict()), dest)


def cmd_run(args) -> int:
    try:
        result = Session().run(
            _spec(args, "golden", component="pcie" if args.pcie else None)
        )
    except RuntimeError as exc:
        print(f"{args.benchmark}: completed=False ({exc})")
        return 1
    record = result.records[0]
    print(
        f"{args.benchmark}: completed=True cycles={record.cycles} "
        f"retired={record.retired} outputs={record.output_words}"
    )
    return 0


def cmd_campaign(args) -> int:
    spec = _spec(args, "injection", component=args.component)
    result = Session().run(spec)
    if args.json:
        _emit_json(result, args.json)
        return 0
    headers = ["benchmark"] + [o.value for o in OUTCOME_ORDER] + ["erroneous"]
    row = result.row() + [str(result.erroneous)]
    title = f"{args.component.upper()} campaign (fault: {spec.fault or DEFAULT_FAULT})"
    print(render_table(headers, [row], title=title))
    print(f"persistent runs (excluded from rates): {result.persistent}")
    masked = result.masked_count()
    if masked:
        print(f"events masked by parity/ECC protection: {masked}")
    return 0


def cmd_faults(args) -> int:
    from repro.faults import fault_table

    headers, rows = fault_table()
    print(render_table(headers, rows, title="Fault models"))
    print(
        "spec syntax: NAME[:key=value,...] -- e.g. "
        "repro campaign --fault mbu:k=2"
    )
    return 0


def cmd_qrr(args) -> int:
    result = Session().run(_spec(args, "qrr", component=args.component))
    ok = result.recovered == result.injections
    if args.json:
        _emit_json(result, args.json)
    else:
        print(
            f"QRR {args.component.upper()}: {result.recovered}/"
            f"{result.injections} recovered ({result.detected} detected); "
            f"failures: {result.failures or 'none'}"
        )
    return 0 if ok else 1


class _DropAfterBrokenPipe:
    """Stands in for stdout and drops every write once its reader has
    gone (``repro sweep ... | head``), so the command still finishes and
    lands its file outputs."""

    def __init__(self, stream) -> None:
        self._stream = stream
        self._gone = False

    def write(self, text: str) -> int:
        if not self._gone:
            try:
                self._stream.write(text)
            except BrokenPipeError:
                self._gone = True
        return len(text)

    def flush(self) -> None:
        if not self._gone:
            try:
                self._stream.flush()
            except BrokenPipeError:
                self._gone = True

    def __getattr__(self, name):
        return getattr(self._stream, name)


def cmd_sweep(args) -> int:
    stdout = sys.stdout
    sys.stdout = _DropAfterBrokenPipe(stdout)
    try:
        return _sweep(args)
    finally:
        sys.stdout = stdout


def _sweep(args) -> int:
    from repro.resilience import GracefulShutdown, SweepJournal

    if args.fault and args.mode != "injection":
        raise _UserError("--fault applies to injection sweeps only")
    if args.journal and args.resume:
        raise _UserError(
            "--journal starts a new journal, --resume continues one; "
            "pass one or the other"
        )
    journal = None
    cache_dir = args.cache_dir
    if args.resume:
        if args.cache_dir:
            raise _UserError(
                "--resume reads the result bus recorded in the journal; "
                "--cache-dir does not apply"
            )
        try:
            journal = SweepJournal.load(args.resume)
        except (FileNotFoundError, ValueError) as exc:
            raise _UserError(str(exc)) from exc
        try:
            grid = journal.to_grid()
            specs = grid.specs()
        except (KeyError, TypeError, ValueError) as exc:
            raise _UserError(
                f"cannot rebuild the sweep grid from {args.resume}: {exc}"
            ) from exc
        if not journal.matches(specs):
            raise _UserError(
                f"journal {args.resume} cells do not match its recorded "
                f"grid (manifest damaged?)"
            )
        cache_dir = str(journal.bus_path())
        # the bus is authoritative: results that landed after the last
        # journal flush (coordinator killed mid-write) still count
        reconciled = journal.reconcile(specs)
        counts = journal.counts()
        line = (
            f"resuming journal {args.resume}: {counts['landed']}/"
            f"{len(specs)} cells already landed"
        )
        if reconciled:
            line += f" ({reconciled} reconciled from the bus)"
        print(line)
    else:
        grid = Grid(
            components=tuple(args.components),
            benchmarks=tuple(args.benchmarks),
            seeds=tuple(args.seeds),
            mode=args.mode,
            n=args.n,
            machine=_machine_config(args),
            scale=args.scale,
            fault=args.fault,
        )
        try:
            specs = grid.specs()
        except ValueError as exc:
            raise _UserError(str(exc)) from exc
    if not specs:
        print("sweep grid is empty (no valid component x benchmark cells)")
        return 1
    if args.journal:
        journal = SweepJournal.create(
            args.journal, grid.to_dict(), specs, bus=args.cache_dir
        )
        cache_dir = str(journal.bus_path())
        print(
            f"journal {args.journal}: {len(specs)} cells, "
            f"bus {journal.bus_path()}"
        )
    try:
        executor = make_executor(
            workers=args.workers,
            cache_dir=cache_dir,
            cluster=args.cluster,
            launcher=args.launcher,
            max_retries=args.max_retries,
            heartbeat_timeout=args.heartbeat_timeout,
            cell_timeout=args.cell_timeout,
            worker_procs=args.worker_procs,
        )
    except ValueError as exc:
        raise _UserError(str(exc)) from exc
    workers = args.cluster if args.cluster else args.workers
    print(
        f"sweep: {len(specs)} cells x {grid.n} runs "
        f"({executor.__class__.__name__}, workers={workers})"
    )
    observer = _sweep_observer(args, total=len(specs))
    with GracefulShutdown() as guard:
        outcome = run_campaign(
            executor, specs, journal=journal, stop=guard.stop,
            on_event=observer,
            ledger=observer.state if observer is not None else None,
        )
    if observer is not None:
        observer.finish()
    if outcome.status == "interrupted":
        exc = outcome.failure
        print(f"sweep interrupted: {exc.done}/{exc.total} cells landed")
        if journal is not None:
            print(f"resume with: repro sweep --resume {journal.directory}")
        elif cache_dir is not None:
            print(
                f"landed cells are durable in {cache_dir}; re-running "
                f"the same sweep with --cache-dir replays them as hits"
            )
        return 130
    if outcome.status == "failed":
        print(f"sweep failed: {outcome.failure}", file=sys.stderr)
        if journal is not None:
            print(
                f"completed cells are journaled; retry with: "
                f"repro sweep --resume {journal.directory}",
                file=sys.stderr,
            )
        return 1
    results = outcome.results
    if journal is not None:
        counts = journal.counts()
        print(
            f"journal {journal.directory}: {counts['landed']}/{len(specs)} "
            f"cells landed"
        )
    if isinstance(executor, CachingExecutor):
        summary = (
            f"result cache {cache_dir}: {executor.last_hits} hits, "
            f"{executor.last_misses} misses"
        )
        if executor.last_stale:
            summary += f" ({executor.last_stale} stale entries recomputed)"
        print(summary)
    if args.cluster:
        summary = f"cluster: {args.cluster} workers ({executor.launcher!r})"
        if executor.last_worker_deaths:
            summary += (
                f"; {executor.last_worker_deaths} worker deaths, "
                f"{executor.last_requeued} cells re-queued"
            )
        if executor.last_timeouts:
            summary += f"; {executor.last_timeouts} cell timeouts"
        if executor.last_fallback:
            summary += (
                f"; {executor.last_fallback} cells computed locally"
            )
        print(summary)

    document = None
    if args.json:
        document = sweep_document(grid.to_dict(), results)
        if args.json != "-":
            # before any table, so the file never waits on stdout
            _emit_text(document, args.json)
    _print_sweep_tables(results)
    if args.json == "-":
        _emit_text(document, "-")
    elif args.json:
        print(f"wrote {len(results)} cell results to {args.json}")
    return 0


class _SweepObserver:
    """Sweep-side consumer of the executor ``on_event`` stream.

    The campaign's cell ledger (``state``, folded by
    :func:`~repro.api.run_campaign`) feeds three obs sinks: the live
    progress line (``--progress``), the JSON-lines trace (``--trace-out``,
    one cell span per ``cell_done`` plus cache instants, with the
    in-process golden-chunk/materialize spans interleaved by the
    installed tracer) and periodic registry snapshots (``--obs-out``,
    what a concurrent ``repro top --follow`` reads).
    """

    SNAPSHOT_PERIOD = 2.0

    def __init__(self, args, total: int) -> None:
        from repro import obs

        self._obs = obs
        self.state = obs.ProgressState(total=total)
        self.renderer = (
            obs.ProgressRenderer(self.state) if args.progress else None
        )
        self.trace = (
            obs.TraceWriter(args.trace_out) if args.trace_out else None
        )
        self.obs_out = args.obs_out
        self._epoch0 = time.time()
        self._last_snapshot = 0.0
        if self.trace is not None:
            # in-process spans (golden chunks, snapshot materializations)
            # interleave with the executor cell records
            obs.set_tracer(self.trace)

    def __call__(self, event: dict) -> None:
        if self.trace is not None:
            self._trace_event(event)
        if self.renderer is not None:
            self.renderer.maybe_render()
        if self._obs.enabled():
            self.state.update_registry()
        if self.obs_out and (
            time.monotonic() - self._last_snapshot > self.SNAPSHOT_PERIOD
        ):
            self._last_snapshot = time.monotonic()
            self._obs.write_snapshot(self.obs_out)

    def _trace_event(self, event: dict) -> None:
        etype = event.get("type")
        if etype == "cell_done":
            self.trace.cell(
                event.get("label", "?"),
                t0=max(0.0, event.get("t", 0.0) - self._epoch0),
                seconds=event.get("seconds", 0.0),
                cpu_seconds=event.get("cpu_seconds", 0.0),
                rss_kb=event.get("rss_kb", 0),
                pid=event.get("worker"),
                digest=event.get("digest"),
                index=event.get("index"),
            )
        elif etype in ("cache_hit", "cache_stale"):
            self.trace.instant(
                etype, "cache", digest=event.get("digest"),
                index=event.get("index"),
            )
        elif etype == "worker_dead":
            self.trace.instant(
                etype, "cluster", worker=event.get("worker"),
                requeued=event.get("requeued"),
            )
        elif etype in ("cell_retry", "cell_timeout", "cell_exhausted"):
            self.trace.instant(
                etype, "resilience", digest=event.get("digest"),
                index=event.get("index"), attempt=event.get("attempt"),
            )

    def _unfinished(self) -> str:
        """Each started-but-unlanded cell with its ledger state and
        typed cause, e.g. ``3 exhausted (timeout), 5 running``."""
        incomplete = self.state.incomplete()
        cells = [c for c in self.state.cells.values() if c.index in incomplete]
        return ", ".join(
            f"{c.index} {c.state}" + (f" ({c.cause})" if c.cause else "")
            for c in sorted(cells, key=lambda c: c.index)
        )

    def finish(self) -> None:
        if self.renderer is not None:
            self.renderer.finish()
        report = self.state.report()
        if self.renderer is not None or report["incomplete"]:
            line = (
                f"sweep done: {report['done']}/{report['total']} cells in "
                f"{report['elapsed_seconds']:.1f}s "
                f"({report['cells_per_sec']:.2f} cells/s)"
            )
            if report["incomplete"]:
                line += (
                    f"; WARNING: {len(report['incomplete'])} cells started "
                    f"but never finished: {self._unfinished()}"
                )
            print(line)
        if self.trace is not None:
            self._obs.set_tracer(None)
            self.trace.close()
        if self.obs_out:
            self._obs.write_snapshot(self.obs_out)


def _sweep_observer(args, total: int) -> "_SweepObserver | None":
    if not (args.progress or args.trace_out or args.obs_out):
        return None
    return _SweepObserver(args, total)


def _print_sweep_tables(results: list[ExperimentResult]) -> None:
    """One panel per (component, seed), rows in benchmark order."""
    panels: dict[tuple, list[ExperimentResult]] = {}
    for result in results:
        panels.setdefault((result.spec.component, result.spec.seed), []).append(
            result
        )
    for (component, seed), cell_results in panels.items():
        mode = cell_results[0].spec.mode
        if mode == "injection":
            headers = (
                ["benchmark"]
                + [o.value for o in OUTCOME_ORDER]
                + ["erroneous"]
            )
            rows = [r.row() + [str(r.erroneous)] for r in cell_results]
            title = f"{(component or '-').upper()} sweep (seed {seed})"
        elif mode == "qrr":
            headers = ["benchmark", "recovered", "detected", "failures"]
            rows = [
                [
                    r.spec.benchmark,
                    f"{r.recovered}/{r.injections}",
                    str(r.detected),
                    str(len(r.failures)),
                ]
                for r in cell_results
            ]
            title = f"QRR {(component or '-').upper()} sweep (seed {seed})"
        else:
            headers = ["benchmark", "cycles", "outputs"]
            rows = [
                [
                    r.spec.benchmark,
                    str(r.golden_cycles),
                    str(r.records[0].output_words),
                ]
                for r in cell_results
            ]
            title = f"golden sweep (seed {seed})"
        print(render_table(headers, rows, title=title))
        print()


def cmd_bench(args) -> int:
    from repro.bench import BenchSettings, check_against_baseline, run_benches
    from repro.bench.harness import (
        fault_overhead_guard,
        obs_overhead_guard,
        save_bench,
    )

    settings = BenchSettings.tiny() if args.tiny else BenchSettings()
    if args.obs_guard:
        guard = obs_overhead_guard(settings, log=print)
        if guard["overhead"] > args.obs_tolerance:
            print(
                f"obs overhead guard[{guard['engine']}]: campaign "
                f"with REPRO_OBS=1 is {guard['overhead']:+.1%} vs obs off "
                f"(limit {args.obs_tolerance:.0%})",
                file=sys.stderr,
            )
            return 1
        print(
            f"obs overhead guard[{guard['engine']}]: "
            f"{guard['overhead']:+.1%} (limit {args.obs_tolerance:.0%}): ok"
        )
        return 0
    if args.fault_guard:
        guard = fault_overhead_guard(settings, log=print)
        if guard["overhead"] > args.fault_tolerance:
            print(
                f"fault-subsystem overhead guard"
                f"[{guard['engine']}]: default SingleBitFlip "
                f"path is {guard['overhead']:+.1%} vs the inline path "
                f"(limit {args.fault_tolerance:.0%})",
                file=sys.stderr,
            )
            return 1
        print(
            f"fault-subsystem overhead guard[{guard['engine']}]: "
            f"{guard['overhead']:+.1%} "
            f"(limit {args.fault_tolerance:.0%}): ok"
        )
        return 0
    if args.scenarios:
        settings = dataclasses.replace(
            settings, scenarios=tuple(args.scenarios)
        )
    doc = run_benches(settings, log=print)
    if args.json == "-":
        print(dumps_canonical(doc))
    else:
        save_bench(doc, args.json)
        print(f"wrote {args.json}")
    if args.check_against:
        failures = check_against_baseline(
            doc,
            args.check_against,
            tolerance=args.tolerance,
            warn=lambda line: print(f"bench warning: {line}", file=sys.stderr),
        )
        if failures:
            for line in failures:
                print(f"bench regression: {line}", file=sys.stderr)
            return 1
        print(f"bench check vs {args.check_against}: ok")
    return 0


def cmd_worker(args) -> int:
    """The cluster worker agent: newline-delimited JSON on stdin/stdout
    (launched by a ClusterExecutor coordinator, rarely by hand)."""
    from repro.cluster import run_worker

    return run_worker(
        args.cache_dir,
        worker_id=args.worker_id,
        heartbeat=args.heartbeat,
        workers=args.workers,
    )


def cmd_serve(args) -> int:
    """``repro serve``: the always-on campaign daemon (see
    :mod:`repro.serve`).  Runs until SIGTERM/SIGINT, then drains:
    admission stops, running jobs are interrupted between cells and
    re-queued durably, and a restart resumes with only unlanded cells
    recomputing."""
    import threading

    from repro.resilience import GracefulShutdown, RetryPolicy
    from repro.serve import CampaignService, make_server, write_endpoint_file

    retry = RetryPolicy(
        max_attempts=args.max_retries + 1,
        backoff_base=0.05,
        cell_timeout=args.cell_timeout,
    )
    service = CampaignService(
        args.state_dir,
        cache_dir=args.cache_dir,
        queue_limit=args.queue_limit,
        per_client_limit=args.per_client,
        runners=args.runners,
        workers=args.workers,
        warm_platforms=args.warm_platforms,
        retry=retry,
        job_timeout=args.job_timeout,
    )
    service.start()
    recovered = service.recovered
    fsck = recovered.get("fsck")
    if fsck:
        quarantined = len(fsck.get("quarantined", []))
        line = f"startup fsck: {fsck.get('ok', 0)} bus entries ok"
        if quarantined:
            line += f", {quarantined} damaged entries quarantined"
        print(line)
    if recovered["jobs"]:
        print(
            f"recovered {recovered['jobs']} interrupted job(s) from "
            f"{service.state_dir} (landed cells will replay as cache hits)"
        )
    for name in recovered.get("damaged", ()):
        print(f"warning: skipped damaged job manifest {name}", file=sys.stderr)
    try:
        server = make_server(service, host=args.host, port=args.port)
    except OSError as exc:
        raise _UserError(
            f"cannot bind {args.host}:{args.port}: {exc}"
        ) from exc
    host, port = server.server_address[:2]
    write_endpoint_file(args.state_dir, host, port)
    print(
        f"repro serve: http://{host}:{port} "
        f"(bus {service.bus}, queue limit {args.queue_limit}, "
        f"{args.runners} runner(s) x {args.workers} worker(s))"
    )
    threading.Thread(
        target=server.serve_forever, name="repro-serve-http", daemon=True
    ).start()
    with GracefulShutdown() as guard:
        try:
            guard.stop.wait()
        except KeyboardInterrupt:
            return 130  # second signal: hard stop, journals stay consistent
    print("repro serve: draining (admission stopped)")
    server.shutdown()
    service.close(timeout=args.drain_timeout)
    stats = service.stats()
    queued = stats["jobs"].get("queued", 0)
    line = "repro serve: drained"
    if queued:
        line += (
            f"; {queued} job(s) re-queued durably (restart with the same "
            f"--state-dir to resume)"
        )
    print(line)
    return 0


def cmd_cache(args) -> int:
    """``repro cache fsck``: audit (and with ``--repair`` quarantine
    damage in) a content-addressed result cache / cluster bus."""
    from repro.resilience import fsck_cache

    kwargs = {}
    if args.tmp_age is not None:
        kwargs["tmp_age"] = args.tmp_age
    try:
        report = fsck_cache(args.cache_dir, repair=args.repair, **kwargs)
    except FileNotFoundError as exc:
        raise _UserError(str(exc)) from exc
    if args.json:
        _emit_text(dumps_canonical(report.to_dict()), args.json)
        if args.json == "-":
            return 0 if report.issues == 0 else 1
    line = (
        f"cache fsck {args.cache_dir}: {report.ok} ok, "
        f"{len(report.corrupt)} corrupt, {len(report.mismatched)} "
        f"mismatched, {len(report.orphan_tmp)} orphaned tmp"
    )
    if report.skipped_tmp:
        line += f" ({report.skipped_tmp} young tmp skipped)"
    print(line)
    for kind in ("corrupt", "mismatched", "orphan_tmp"):
        for name in getattr(report, kind):
            print(f"  {kind}: {name}")
    if report.quarantined:
        print(
            f"quarantined {len(report.quarantined)} entries into "
            f"{report.cache_dir / 'quarantine'}"
        )
    elif report.issues:
        print("re-run with --repair to quarantine the damaged entries")
    return 0 if report.issues == 0 else 1


def cmd_top(args) -> int:
    """Render obs state: a snapshot file a sweep wrote (``--obs-out``),
    or this process's own registry when no file is given."""
    from repro import obs
    from repro.obs.report import read_snapshot

    def render(doc) -> str:
        if args.format == "prom":
            return obs.render_prometheus(doc)
        return obs.render_table(doc)

    if args.snapshot is None:
        print(render(obs.snapshot()))
        if not obs.enabled():
            print(
                "(hint: the metrics layer is off in this process; pass a "
                "snapshot file written by 'repro sweep --obs-out FILE', or "
                "run commands with --obs / REPRO_OBS=1)",
                file=sys.stderr,
            )
        return 0
    while True:
        try:
            doc = read_snapshot(args.snapshot)
        except OSError:
            # a missing file, or an unreachable /metrics URL (URLError
            # is an OSError); --follow keeps polling either way
            if not args.follow:
                print(f"no snapshot at {args.snapshot}", file=sys.stderr)
                return 1
            doc = None
        if doc is not None:
            print(render(doc))
        if not args.follow:
            return 0
        time.sleep(args.interval)


def cmd_tables(_args) -> int:
    for title, fn in (
        ("Table 1", table1_highlevel_state),
        ("Table 3", table3_inventory),
        ("Table 4", table4_targets),
        ("Table 5", table5_benchmarks),
    ):
        headers, rows = fn()
        print(render_table(headers, rows, title=title))
        print()
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, benchmark=True):
        if benchmark:
            p.add_argument("--benchmark", default="fft", choices=ALL_BENCHMARKS)
        p.add_argument("--cores", type=int, default=8)
        p.add_argument("--threads-per-core", type=int, default=4)
        p.add_argument("--l2-sets", type=int, default=8)
        p.add_argument("--l2-ways", type=int, default=4)
        p.add_argument("--scale", type=float, default=DEFAULT_SCALE)
        p.add_argument("--seed", type=int, default=2015)
        p.add_argument(
            "--obs", action="store_true",
            help="enable the metrics layer (same as REPRO_OBS=1); "
                 "digest-neutral -- results are bit-identical either way",
        )

    def json_flag(p):
        p.add_argument(
            "--json", nargs="?", const="-", default=None, metavar="FILE",
            help="emit the canonical ExperimentResult JSON "
                 "(to FILE, or stdout when no FILE is given)",
        )

    p = sub.add_parser("run", help="run one benchmark error-free")
    common(p)
    p.add_argument("--pcie", action="store_true", help="DMA the input file")
    p.set_defaults(func=cmd_run)

    def fault_flag(p):
        p.add_argument(
            "--fault", default=None, metavar="SPEC",
            help="fault-model spec string, e.g. 'mbu:k=2' or "
                 "'stuck:value=0' (see 'repro faults list'; "
                 "default: the paper's single-bit flip)",
        )

    p = sub.add_parser("campaign", help="run an injection campaign cell")
    common(p)
    p.add_argument("--component", default="l2c", choices=UNCORE_TARGETS)
    p.add_argument("--n", type=int, default=100)
    fault_flag(p)
    json_flag(p)
    p.set_defaults(func=cmd_campaign)

    p = sub.add_parser("faults", help="describe the available fault models")
    p.add_argument("action", nargs="?", default="list", choices=["list"])
    p.set_defaults(func=cmd_faults)

    p = sub.add_parser("qrr", help="run a QRR effectiveness campaign")
    common(p)
    p.add_argument("--component", default="l2c", choices=QRR_COMPONENTS)
    p.add_argument("--n", type=int, default=25)
    json_flag(p)
    p.set_defaults(func=cmd_qrr)

    p = sub.add_parser(
        "sweep", help="run a component x benchmark x seed campaign grid"
    )
    common(p, benchmark=False)
    p.add_argument(
        "--components", nargs="+", default=list(UNCORE_TARGETS),
        choices=UNCORE_TARGETS,
    )
    p.add_argument(
        "--benchmarks", nargs="+", default=list(ALL_BENCHMARKS),
        choices=ALL_BENCHMARKS,
    )
    p.add_argument("--seeds", nargs="+", type=int, default=None,
                   help="campaign seeds (default: --seed)")
    p.add_argument("--mode", default="injection",
                   choices=["injection", "qrr", "golden"])
    p.add_argument("--n", type=int, default=100)
    p.add_argument("--workers", type=int, default=1,
                   help="process-pool size; 1 runs serially")
    p.add_argument("--cluster", type=int, default=0, metavar="N",
                   help="shard the grid across N 'repro worker' agents "
                        "(overrides --workers; results stay byte-identical "
                        "to a serial sweep)")
    p.add_argument("--launcher", default=None, metavar="SPEC",
                   help="cluster worker transport: 'local' (default) or "
                        "'ssh:host1,host2' (requires a shared --cache-dir)")
    p.add_argument("--worker-procs", type=int, default=1, metavar="N",
                   help="(--cluster) process-pool size inside each worker "
                        "agent: total fan-out becomes cluster x N "
                        "(results stay byte-identical)")
    p.add_argument("--json", default=None, metavar="FILE",
                   help="persist all cell results ('-' for stdout)")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="skip cells whose (spec-digest -> result) JSON "
                        "already exists under DIR; misses are written back")
    p.add_argument("--progress", action="store_true",
                   help="render a live progress line (cells/sec, ETA, "
                        "cache hit rate, per-worker rss)")
    p.add_argument("--trace-out", default=None, metavar="FILE",
                   help="write per-cell trace spans (canonical JSON-lines; "
                        "convert with repro.obs.to_chrome)")
    p.add_argument("--obs-out", default=None, metavar="FILE",
                   help="periodically write a metrics-registry snapshot "
                        "for 'repro top FILE --follow'")
    p.add_argument("--journal", default=None, metavar="DIR",
                   help="write a crash-safe sweep journal under DIR (grid "
                        "manifest + per-cell state; the result bus defaults "
                        "to DIR/bus unless --cache-dir names one); a killed "
                        "sweep continues with --resume DIR")
    p.add_argument("--resume", default=None, metavar="DIR",
                   help="resume the journaled sweep under DIR: the grid "
                        "comes from the journal, landed cells replay as "
                        "byte-identical cache hits, only unlanded cells "
                        "recompute")
    p.add_argument("--max-retries", type=int, default=None, metavar="N",
                   help="per-cell re-attempt budget after a crash, timeout "
                        "or error (default: fail fast locally, 2 for "
                        "--cluster)")
    p.add_argument("--cell-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-cell wall-clock deadline: a cell running "
                        "longer gets its worker process killed and is "
                        "re-queued against the retry budget (pool and "
                        "cluster only; a serial sweep has no worker "
                        "process to kill and ignores it)")
    p.add_argument("--heartbeat-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="(--cluster) silence beyond this declares a worker "
                        "dead and re-queues its cells")
    fault_flag(p)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser(
        "bench", help="measure cycle-engine throughput (BENCH_step.json)"
    )
    p.add_argument("--tiny", action="store_true",
                   help="CI smoke sizing (fewer runs/repeats)")
    p.add_argument("--json", default="BENCH_step.json", metavar="FILE",
                   help="where to write the canonical bench document "
                        "('-' for stdout only)")
    p.add_argument("--scenarios", nargs="+", default=None,
                   choices=["golden", "injection", "qrr", "sweep",
                            "cluster", "serve"])
    p.add_argument("--check-against", default=None, metavar="BASELINE",
                   help="fail (exit 1) if event-engine cycles/sec regresses "
                        "more than --tolerance below this baseline JSON")
    p.add_argument("--tolerance", type=float, default=0.30)
    p.add_argument("--fault-guard", action="store_true",
                   help="only run the fault-subsystem overhead guard: "
                        "time the default SingleBitFlip campaign path "
                        "against the inline run_injection path and fail "
                        "(exit 1) beyond --fault-tolerance")
    p.add_argument("--fault-tolerance", type=float, default=0.05)
    p.add_argument("--obs-guard", action="store_true",
                   help="only run the observability overhead guard: time a "
                        "campaign cell with the obs layer enabled against "
                        "the disabled path and fail (exit 1) beyond "
                        "--obs-tolerance")
    p.add_argument("--obs-tolerance", type=float, default=0.10)
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser(
        "worker",
        help="run a cluster worker agent (JSON lines on stdin/stdout)",
    )
    p.add_argument("--cache-dir", required=True, metavar="DIR",
                   help="the shared content-addressed result bus directory")
    p.add_argument("--worker-id", type=int, default=0)
    p.add_argument("--heartbeat", type=float, default=2.0, metavar="SECONDS",
                   help="liveness beacon period (<= 0 disables)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="run each shard through a supervised process "
                        "pool of N workers instead of serially")
    p.set_defaults(func=cmd_worker)

    p = sub.add_parser(
        "serve",
        help="run the always-on campaign service (HTTP/JSON job API)",
    )
    p.add_argument("--state-dir", default=".repro-serve", metavar="DIR",
                   help="durable daemon state: job manifests + journals "
                        "under DIR/jobs, the result bus under DIR/bus "
                        "(unless --cache-dir), the bound endpoint in "
                        "DIR/http.json")
    p.add_argument("--cache-dir", default=None, metavar="DIR",
                   help="the content-addressed result bus (default: "
                        "STATE_DIR/bus); fsck'd with --repair on startup "
                        "and after executor crashes")
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8750,
                   help="TCP port (0 picks an ephemeral port; the bound "
                        "endpoint is advertised in STATE_DIR/http.json)")
    p.add_argument("--queue-limit", type=int, default=8, metavar="N",
                   help="bounded job queue: submissions past N are "
                        "refused with 503 + Retry-After")
    p.add_argument("--per-client", type=int, default=2, metavar="N",
                   help="per-client in-flight job cap: past N the client "
                        "gets 429 + Retry-After")
    p.add_argument("--runners", type=int, default=1, metavar="N",
                   help="concurrent job runner threads (each executes "
                        "one job at a time)")
    p.add_argument("--workers", type=int, default=1, metavar="N",
                   help="process-pool size per job (1 runs cells "
                        "serially in-daemon against the warm platform "
                        "pool)")
    p.add_argument("--warm-platforms", type=int, default=8, metavar="N",
                   help="LRU capacity of the warm platform/snapshot "
                        "pool shared across jobs")
    p.add_argument("--max-retries", type=int, default=1, metavar="N",
                   help="per-cell re-attempt budget inside a job")
    p.add_argument("--cell-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-cell wall-clock deadline (pool workers past "
                        "it are killed and the cell re-queued; ignored "
                        "with --workers 1, which has no worker process "
                        "to kill)")
    p.add_argument("--job-timeout", type=float, default=None,
                   metavar="SECONDS",
                   help="per-job deadline: a job running longer is "
                        "interrupted between cells and marked failed "
                        "(landed cells stay durable)")
    p.add_argument("--drain-timeout", type=float, default=30.0,
                   metavar="SECONDS",
                   help="how long SIGTERM waits for running jobs to "
                        "stop between cells before exiting anyway")
    p.add_argument(
        "--obs", action="store_true",
        help="enable the metrics layer (the /metrics endpoint serves "
             "the registry snapshot; digest-neutral)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "cache", help="inspect and repair a result cache / cluster bus"
    )
    cache_sub = p.add_subparsers(dest="action", required=True)
    pf = cache_sub.add_parser(
        "fsck",
        help="audit every cache entry (parse + digest check) and "
             "orphaned temp files; exit 1 when damage is found",
    )
    pf.add_argument("cache_dir", metavar="CACHE_DIR",
                    help="the cache / bus directory to scan")
    pf.add_argument("--repair", action="store_true",
                    help="move damaged entries and orphaned temp files "
                         "into CACHE_DIR/quarantine/ (never deletes)")
    pf.add_argument("--tmp-age", type=float, default=None, metavar="SECONDS",
                    help="treat *.tmp files older than this as orphaned "
                         "(default: 60)")
    json_flag(pf)
    pf.set_defaults(func=cmd_cache)

    p = sub.add_parser(
        "top", help="render obs metrics (table or Prometheus format)"
    )
    p.add_argument("snapshot", nargs="?", default=None, metavar="SNAPSHOT",
                   help="a snapshot file written by 'repro sweep --obs-out' "
                        "(default: this process's registry)")
    p.add_argument("--format", default="table", choices=["table", "prom"],
                   help="'prom' emits Prometheus text-exposition format")
    p.add_argument("--follow", action="store_true",
                   help="re-render the snapshot file every --interval "
                        "seconds until interrupted")
    p.add_argument("--interval", type=float, default=2.0)
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("tables", help="print the inventory tables")
    p.set_defaults(func=cmd_tables)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "obs", False):
        # enable before any platform/machine is built so hot-loop
        # counter handles freeze in the enabled state (also exports
        # REPRO_OBS=1 for pool workers)
        from repro import obs

        obs.enable()
    if args.command == "sweep" and args.seeds is None:
        args.seeds = [args.seed]
    try:
        return args.func(args)
    except BrokenPipeError:
        # output was piped into a pager/head that exited early
        return 0
    except _UserError as exc:
        # invalid spec combinations (e.g. PCIe into a benchmark without
        # an input file) are user errors, not crashes; genuine internal
        # errors still raise with a full traceback
        print(f"repro {args.command}: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
