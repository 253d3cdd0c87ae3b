"""Mixed-mode vs. RTL-only outcome validation (paper Sec. 4.3, Fig. 7).

The paper validates the platform by comparing outcome rates against pure
RTL simulation on a small FFT configuration (4 threads, no OS, ONA and
OMM merged because that setup produces no output files); the mixed-mode
rates match within 0.9-1.1x.  Here the RTL-only arm keeps the target L2C
bank at RTL for the entire run and injects directly, with no golden
model, no state transfer and no early exit -- the ground truth the
mixed-mode methodology is checked against.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from repro.injection.campaign import InjectionCampaign
from repro.mixedmode.platform import MixedModePlatform
from repro.mixedmode.warmup import _FullCosimBank
from repro.soc.geometry import T2_GEOMETRY
from repro.system.machine import Machine, MachineConfig
from repro.system.outcome import Outcome, classify_outcome
from repro.utils.stats import BinomialEstimate
from repro.workloads import build_workload

#: Fig. 7 outcome buckets (ONA and OMM merged, as in the paper).
BUCKETS = ("ONA+OMM", "UT", "Hang")


@dataclass
class ValidationRates:
    """Erroneous-outcome rates for one simulation arm."""

    arm: str
    total: int = 0
    counts: dict[str, int] = field(default_factory=lambda: {b: 0 for b in BUCKETS})

    def add(self, bucket: "str | None") -> None:
        self.total += 1
        if bucket is not None:
            self.counts[bucket] += 1

    def rate(self, bucket: str) -> BinomialEstimate:
        return BinomialEstimate(self.counts[bucket], self.total)


@dataclass
class ValidationResult:
    """Fig. 7: the two arms side by side."""

    rtl_only: ValidationRates
    mixed: ValidationRates

    def ratio(self, bucket: str) -> "float | None":
        """mixed / rtl_only rate ratio (paper: 0.9-1.1x)."""
        r = self.rtl_only.rate(bucket).rate
        m = self.mixed.rate(bucket).rate
        if r == 0.0:
            return None
        return m / r


class ValidationExperiment:
    """Runs both arms on the small-FFT configuration."""

    def __init__(
        self,
        benchmark: str = "fft",
        machine_config: MachineConfig = MachineConfig(cores=2, threads_per_core=2),
        scale: float = 1.0 / 300_000.0,
        seed: int = 7,
    ) -> None:
        self.benchmark = benchmark
        self.machine_config = machine_config
        self.scale = scale
        self.seed = seed
        self.image = build_workload(
            benchmark,
            threads=machine_config.total_threads,
            scale=scale,
            seed=seed,
        )

    @staticmethod
    def _bucket(outcome: Outcome) -> "str | None":
        if outcome in (Outcome.ONA, Outcome.OMM):
            return "ONA+OMM"
        if outcome is Outcome.UT:
            return "UT"
        if outcome is Outcome.HANG:
            return "Hang"
        return None

    # ------------------------------------------------------------------
    def run_rtl_only(self, n_injections: int) -> ValidationRates:
        """Ground truth: full-length RTL simulation of the target bank."""
        rng = random.Random(self.seed ^ 0xA5A5)
        # error-free reference
        golden_machine = self._rtl_machine(bank=0)
        golden = golden_machine.run()
        if not golden.completed:
            raise RuntimeError("RTL-only golden run failed")
        rates = ValidationRates("rtl_only")
        nbits = T2_GEOMETRY["l2c"].target_ffs
        for _ in range(n_injections):
            bank = rng.randrange(self.machine_config.l2_banks)
            cycle = rng.randrange(1, golden.cycles - 1)
            bit = rng.randrange(nbits)
            machine = self._rtl_machine(bank)
            machine.run_until_cycle(cycle)
            machine.l2banks[bank].live.flip_target_bit(bit)
            result = machine.run(
                hang_factor_cycles=golden.cycles * 4 + 50_000
            )
            outcome = classify_outcome(result, golden.output, False)
            rates.add(self._bucket(outcome))
        return rates

    def _rtl_machine(self, bank: int) -> Machine:
        machine = Machine(self.machine_config)
        machine.load_workload(self.image)
        server = _FullCosimBank(machine, bank)
        machine.swap("l2c", bank, server)
        return machine

    # ------------------------------------------------------------------
    def run_mixed(self, n_injections: int) -> ValidationRates:
        """The mixed-mode platform on the identical configuration."""
        platform = MixedModePlatform(
            self.benchmark,
            machine_config=self.machine_config,
            scale=self.scale,
            seed=self.seed,
            image=self.image,
        )
        campaign = InjectionCampaign(platform, "l2c", seed=self.seed)
        rates = ValidationRates("mixed")
        for run in campaign.run(n_injections):
            if run.persistent or run.outcome is None:
                rates.add(None)
            else:
                rates.add(self._bucket(run.outcome))
        return rates

    def run(self, n_injections: int) -> ValidationResult:
        return ValidationResult(
            rtl_only=self.run_rtl_only(n_injections),
            mixed=self.run_mixed(n_injections),
        )
