"""The session facade: specs in, canonical results out.

A :class:`Session` owns the expensive state -- mixed-mode platforms and
their golden runs -- and resolves :class:`~repro.api.spec.ExperimentSpec`
instances into campaigns.  Platforms are cached by
``spec.platform_key()``, so a sweep over four components of one
benchmark pays for one golden run, not four.

Determinism contract: ``Session().run(spec)`` depends only on the spec.
Every injection run restores a golden snapshot before executing and the
campaign RNG is derived from stable digests of (seed, component), so the
same spec produces the same result in any process -- the property the
parallel executor relies on.
"""

from __future__ import annotations

import zlib

from repro.api.result import ExperimentResult, RunRecord
from repro.api.spec import ExperimentSpec
from repro.injection.campaign import InjectionCampaign
from repro.mixedmode.platform import (
    CosimConfig,
    GoldenRun,
    InjectionRun,
    MixedModePlatform,
    compute_golden,
)
from repro.qrr.campaign import QrrCampaign
from repro.system.machine import DEFAULT_ENGINE, Machine
from repro.workloads import build_workload


class Session:
    """Resolves experiment specs into platforms, campaigns and results.

    ``engine`` selects the machine cycle engine for specs that do not
    name one themselves (``ExperimentSpec.engine`` wins when set).  Both
    engines -- event and reference -- produce bit-identical
    results, so the choice is an in-process test and diagnostic setting:
    it never reaches spec digests, cache keys or canonical result bytes,
    and no executor, worker or CLI flag forwards it.
    """

    def __init__(self, engine: str = DEFAULT_ENGINE) -> None:
        self.engine = engine
        self._platforms: dict[tuple, MixedModePlatform] = {}

    # ------------------------------------------------------------------
    # platform resolution
    # ------------------------------------------------------------------
    def platform(self, spec: ExperimentSpec) -> MixedModePlatform:
        """The (cached) mixed-mode platform for a spec's workload cell."""
        key = spec.platform_key()
        platform = self._platforms.get(key)
        if platform is None:
            platform = self._platforms[key] = self._build(spec)
        return platform

    def _build(self, spec: ExperimentSpec) -> MixedModePlatform:
        """A fresh platform (and golden run) for a spec's workload cell."""
        return MixedModePlatform(
            spec.benchmark,
            machine_config=spec.machine,
            scale=spec.scale,
            seed=spec.seed,
            pcie_input=spec.pcie_input,
            engine=self._engine(spec),
        )

    def _engine(self, spec: ExperimentSpec) -> str:
        """The cycle engine a spec runs on: its own, else the session's."""
        return spec.engine or self.engine

    def platforms(self) -> list[MixedModePlatform]:
        """The currently cached platforms (e.g. for perf accounting)."""
        return list(self._platforms.values())

    def clear(self) -> None:
        """Drop all cached platforms (frees snapshots and machines)."""
        self._platforms.clear()

    # ------------------------------------------------------------------
    # the single front door
    # ------------------------------------------------------------------
    def run(self, spec: ExperimentSpec) -> ExperimentResult:
        """Run one experiment cell and return the canonical result."""
        from repro import obs

        with obs.timer("session.cell_seconds", labels={"mode": spec.mode}).time():
            if spec.mode == "injection":
                result = self._run_injection(spec)
            elif spec.mode == "qrr":
                result = self._run_qrr(spec)
            else:
                result = self._run_golden(spec)
        obs.counter("session.cells", labels={"mode": spec.mode}).inc()
        if obs.enabled():
            # cell end is the coarse boundary where machine-cycle deltas
            # get published into the registry
            for platform in self._platforms.values():
                platform.machine.obs_flush()
        return result

    # ------------------------------------------------------------------
    # full-fidelity access (in-process callers: traces, co-sim tests)
    # ------------------------------------------------------------------
    def campaign(self, spec: ExperimentSpec) -> list[InjectionRun]:
        """The live ``InjectionRun``s of an injection spec's campaign.

        :meth:`run` builds its canonical records from exactly these runs;
        in-process callers use them to reach the full co-simulation
        record (``cosim``, warm-up length, the ``FaultEvent`` object).
        """
        if spec.mode != "injection":
            raise ValueError(f"campaign() needs an injection spec, got {spec.mode!r}")
        return self._campaign(spec, self.platform(spec))

    def _campaign(
        self, spec: ExperimentSpec, platform: MixedModePlatform
    ) -> list[InjectionRun]:
        return InjectionCampaign(
            platform, spec.component, seed=spec.seed, fault=spec.fault_model()
        ).run(spec.n)

    # ------------------------------------------------------------------
    # mode drivers
    # ------------------------------------------------------------------
    def _run_injection(self, spec: ExperimentSpec) -> ExperimentResult:
        # one platform lookup per cell: the serve pool counts each one
        platform = self.platform(spec)
        records = [
            _record_from_injection(i, run)
            for i, run in enumerate(self._campaign(spec, platform))
        ]
        return ExperimentResult(
            spec=spec, records=records, golden_cycles=platform.golden.cycles
        )

    def _run_qrr(self, spec: ExperimentSpec) -> ExperimentResult:
        platform = self.platform(spec)
        records = QrrCampaign(platform, spec.component).run(
            spec.n, seed=spec.seed
        )
        return ExperimentResult(
            spec=spec, records=records, golden_cycles=platform.golden.cycles
        )

    def _run_golden(self, spec: ExperimentSpec) -> ExperimentResult:
        golden = self._golden(spec)
        record = RunRecord(
            index=0,
            cycles=golden.cycles,
            retired=golden.retired,
            output_words=len(golden.output),
            output_crc=_output_crc(golden.output),
        )
        return ExperimentResult(
            spec=spec, records=[record], golden_cycles=golden.cycles
        )

    def _golden(self, spec: ExperimentSpec) -> GoldenRun:
        """The error-free reference for a golden-mode spec.

        Reuses a cached platform's golden run when one exists; otherwise
        runs the machine directly without keeping periodic snapshots --
        nothing will ever restore into a golden-only run, and the
        snapshots dominate its cost.
        """
        platform = self._platforms.get(spec.platform_key())
        if platform is not None:
            return platform.golden
        image = build_workload(
            spec.benchmark,
            threads=spec.machine.total_threads,
            scale=spec.scale,
            seed=spec.seed,
        )
        machine = Machine(spec.machine, engine=self._engine(spec))
        machine.load_workload(image, pcie_input=spec.pcie_input)
        return compute_golden(
            machine,
            CosimConfig(),
            want_pcie_window=(
                image.input_file_words is not None and spec.pcie_input
            ),
            keep_snapshots=False,
        )


# ----------------------------------------------------------------------
# record converter
# ----------------------------------------------------------------------
def _record_from_injection(index: int, run: InjectionRun) -> RunRecord:
    return RunRecord(
        index=index,
        outcome=run.outcome.value if run.outcome is not None else None,
        persistent=run.persistent,
        instance=run.instance,
        injection_cycle=run.injection_cycle,
        flip_location=tuple(run.flip_location),
        propagation_latency=run.propagation_latency,
        rollback_distance=run.rollback_distance,
        fault=run.fault_event.to_dict() if run.fault_event else None,
    )


def _output_crc(output: dict[int, int]) -> int:
    """Stable checksum of the application output channel."""
    blob = ";".join(
        f"{slot}:{value}" for slot, value in sorted(output.items())
    ).encode()
    return zlib.crc32(blob)
