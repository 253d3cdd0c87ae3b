"""Tests for the pluggable fault-model subsystem (repro.faults)."""

import json

import pytest

from repro.analysis.tables import fault_model_comparison
from repro.api import (
    CachingExecutor,
    ExperimentResult,
    ExperimentSpec,
    Grid,
    SerialExecutor,
    Session,
)
from repro.faults import (
    FAULT_MODELS,
    FaultEvent,
    IntermittentFlip,
    MultiBitUpset,
    Protection,
    SingleBitFlip,
    SramFault,
    StuckAt,
    TargetFilter,
    candidate_bits,
    candidate_rows,
    fault_table,
    parse_fault,
)
from repro.system.machine import MachineConfig

#: small, fast geometry shared by the fault tests (same as test_api)
SMALL = MachineConfig(cores=2, threads_per_core=2, l2_banks=8, l2_sets=8, l2_ways=4)


def small_spec(**overrides) -> ExperimentSpec:
    base = dict(
        benchmark="fft", component="l2c", mode="injection",
        machine=SMALL, scale=5e-6, seed=7, n=4,
    )
    base.update(overrides)
    return ExperimentSpec(**base)


@pytest.fixture(scope="module")
def session():
    return Session()


# ----------------------------------------------------------------------
# spec strings and the model registry
# ----------------------------------------------------------------------
class TestParse:
    def test_none_is_default(self):
        assert parse_fault(None) == SingleBitFlip()

    def test_round_trip_canonical(self):
        model = parse_fault("mbu:k=3")
        assert model.spec_string() == "mbu:k=3"
        assert parse_fault(model.spec_string()) == model

    def test_canonical_sorts_and_drops_defaults(self):
        model = parse_fault("stuck:value=1,hold=200")
        # value=1 is the default and drops out; keys sort
        assert model.spec_string() == "stuck:hold=200"

    def test_unknown_model(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            parse_fault("cosmic")

    def test_unknown_parameter(self):
        with pytest.raises(ValueError, match="no parameter"):
            parse_fault("mbu:rays=9")

    def test_bad_parameter_value(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_fault("mbu:k=banana")

    def test_bad_parameter_syntax(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_fault("mbu:k")

    def test_model_specific_validation(self):
        with pytest.raises(ValueError, match="value must be 0 or 1"):
            parse_fault("stuck:value=2")
        with pytest.raises(ValueError, match="at least 1"):
            parse_fault("mbu:k=0")
        with pytest.raises(ValueError, match="ecc"):
            parse_fault("sram:ecc=maybe")

    def test_registry_and_table_cover_all_models(self):
        assert set(FAULT_MODELS) == {"seu", "mbu", "stuck", "flicker", "sram"}
        headers, rows = fault_table()
        assert {row[0] for row in rows} == set(FAULT_MODELS)


# ----------------------------------------------------------------------
# fault events
# ----------------------------------------------------------------------
class TestFaultEvent:
    def test_json_round_trip(self):
        event = FaultEvent(
            "mbu", "l2c", instance=3, cycle=1234,
            locations=[("iq_data", 2, 7), ("iq_data", 2, 8)],
            params={"k": 2}, masked=False,
        )
        clone = FaultEvent.from_dict(json.loads(json.dumps(event.to_dict())))
        assert clone == event


# ----------------------------------------------------------------------
# target filters and protection
# ----------------------------------------------------------------------
class TestTargets:
    @pytest.fixture(scope="class")
    def module(self):
        from repro.faults import build_module

        return build_module("l2c")

    def test_class_filter(self, module):
        bits = candidate_bits(module, TargetFilter(classes=("target",)))
        assert len(bits) == module.target_flip_flop_count()
        anybits = candidate_bits(module, TargetFilter(classes=("any",)))
        assert len(anybits) == module.flip_flop_count()

    def test_name_glob(self, module):
        bits = candidate_bits(
            module, TargetFilter(name_glob="iq_*")
        )
        assert bits and all(name.startswith("iq_") for name, _e, _b in bits)

    def test_entry_range(self, module):
        rows = candidate_rows(
            module, TargetFilter(kind="sram", name_glob="tag_array",
                                 entry_range=(0, 3))
        )
        assert [r for _n, r in rows] == [0, 1, 2, 3]

    def test_protection_masks_single_bit_in_protected_word(self, module):
        prot = Protection()
        assert prot.masks(module, [("wbb_data", 0, 5)])
        assert prot.masks(module, [("sram:tag_array", 0, 1)])

    def test_protection_defeated_by_double_bit(self, module):
        prot = Protection()
        assert not prot.masks(module, [("sram:tag_array", 0, 1),
                                       ("sram:tag_array", 0, 2)])

    def test_protection_ignores_unprotected(self, module):
        assert not Protection().masks(module, [("iq_data", 0, 1)])


# ----------------------------------------------------------------------
# spec integration: the fault field
# ----------------------------------------------------------------------
class TestSpecFaultField:
    def test_explicit_default_normalizes_to_none(self):
        assert small_spec(fault="seu").fault is None
        assert small_spec(fault="seu") == small_spec()

    def test_canonicalized_in_spec(self):
        spec = small_spec(fault="stuck:value=1,hold=200")
        assert spec.fault == "stuck:hold=200"

    def test_digest_stable_for_default(self):
        assert small_spec().digest() == small_spec(fault="seu").digest()

    def test_digest_changes_with_fault(self):
        digests = {
            small_spec(fault=f).digest()
            for f in (None, "mbu:k=2", "mbu:k=3", "stuck", "sram:k=2")
        }
        assert len(digests) == 5

    def test_dict_round_trip(self):
        spec = small_spec(fault="mbu:k=3")
        clone = ExperimentSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
        assert clone == spec
        # the default omits the key entirely (old digests stay valid)
        assert "fault" not in small_spec().to_dict()

    def test_validation_errors_name_the_field(self):
        with pytest.raises(ValueError, match="ExperimentSpec.fault"):
            small_spec(fault="cosmic")
        with pytest.raises(ValueError, match="ExperimentSpec.mode"):
            small_spec(mode="fuzz")
        with pytest.raises(ValueError, match="ExperimentSpec.n"):
            small_spec(n=0)
        with pytest.raises(ValueError, match="ExperimentSpec.scale"):
            small_spec(scale=-1.0)
        with pytest.raises(ValueError, match="ExperimentSpec.component"):
            small_spec(component="niu")

    def test_qrr_rejects_fault(self):
        with pytest.raises(ValueError, match="ExperimentSpec.fault"):
            small_spec(mode="qrr", fault="mbu:k=2")

    def test_golden_normalizes_fault(self):
        assert small_spec(mode="golden", fault="mbu:k=2").fault is None

    def test_sram_fault_needs_sram_component(self):
        with pytest.raises(ValueError, match="SRAM"):
            small_spec(component="mcu", fault="sram:k=2")

    def test_empty_target_filter_rejected_at_spec_time(self):
        """An unmatched reg=/sram= glob fails spec validation -- before
        any golden run is paid for."""
        with pytest.raises(ValueError, match="ExperimentSpec.fault"):
            small_spec(fault="mbu:reg=no_such_reg*")
        with pytest.raises(ValueError, match="ExperimentSpec.fault"):
            small_spec(fault="stuck:reg=zzz*")
        with pytest.raises(ValueError, match="ExperimentSpec.fault"):
            small_spec(fault="sram:sram=no_such_array*")
        # a matching glob still passes
        assert small_spec(fault="mbu:reg=iq_*").fault == "mbu:reg=iq_*"

    def test_grid_propagates_invalid_fault_spec_error(self):
        """A malformed --fault must raise, not silently empty the grid."""
        grid = Grid(
            components=("l2c",), benchmarks=("fft",), machine=SMALL,
            scale=5e-6, n=1, fault="mbu:k=0",
        )
        with pytest.raises(ValueError, match="at least 1"):
            grid.specs()

    def test_grid_propagates_and_drops_invalid_cells(self):
        grid = Grid(
            components=("l2c", "mcu"), benchmarks=("fft",), machine=SMALL,
            scale=5e-6, n=2, fault="sram:k=2",
        )
        specs = grid.specs()
        # mcu has no SRAM arrays -> its cell is dropped, like PCIe cells
        # of benchmarks without an input file
        assert [s.component for s in specs] == ["l2c"]
        assert specs[0].fault == "sram"  # canonical: k=2 is the default


# ----------------------------------------------------------------------
# campaign-level behaviour per model (deterministic at fixed seed)
# ----------------------------------------------------------------------
class TestCampaigns:
    def test_default_equals_explicit_default_json(self, session, tmp_path):
        """Acceptance: fault unset and fault='seu' produce byte-identical
        ExperimentResult JSON for the same seed."""
        a = session.run(small_spec())
        b = Session().run(small_spec(fault="seu"))
        pa, pb = tmp_path / "a.json", tmp_path / "b.json"
        a.save(pa)
        b.save(pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_records_carry_fault_events(self, session):
        result = session.run(small_spec(fault="mbu:k=2"))
        for record in result.records:
            assert record.fault["model"] == "mbu"
            assert len(record.fault["locations"]) == 2
            name, entry, bit0 = record.fault["locations"][0]
            _, entry1, bit1 = record.fault["locations"][1]
            assert entry1 == entry  # burst stays within one entry

    def test_save_load_round_trip_with_fault(self, session, tmp_path):
        result = session.run(small_spec(fault="flicker:period=20,window=600"))
        path = result.save(tmp_path / "cell.json")
        assert ExperimentResult.load(path) == result

    def test_models_are_deterministic(self, session):
        spec = small_spec(fault="stuck:hold=0")
        assert session.run(spec) == Session().run(spec)

    def test_stuck_forever_never_exits_cosim(self, session):
        """A bit held for the whole co-sim window can neither vanish nor
        hand over, so every run ends persistent at the cap."""
        result = session.run(small_spec(fault="stuck:hold=0"))
        assert result.persistent == result.injections

    def test_stuck_hold_delays_the_exit(self, session):
        runs = session.campaign(small_spec(fault="stuck:hold=400"))
        check = session.platform(small_spec()).cosim.check_interval
        for run in runs:
            assert run.cosim.cosim_cycles >= 400
            assert run.cosim.cosim_cycles % check == 0

    def test_flicker_window_delays_the_exit(self, session):
        runs = session.campaign(small_spec(fault="flicker:period=20,window=600"))
        for run in runs:
            assert run.cosim.cosim_cycles >= 600

    def test_sram_double_bit_corrupts_architected_state(self, session):
        """SRAM rows are never touched by the single-bit campaign; a
        double-bit burst defeats ECC and lands in architected state."""
        result = session.run(small_spec(fault="sram:k=2"))
        counts = result.outcome_counts()
        assert counts["Vanished"] == 0
        assert sum(counts.values()) == result.injections
        for record in result.records:
            assert record.fault["locations"][0][0].startswith("sram:")

    def test_sram_single_bit_is_ecc_masked(self, session):
        result = session.run(small_spec(fault="sram:k=1"))
        assert all(r.fault["masked"] for r in result.records)
        assert result.outcome_counts()["Vanished"] == result.injections

    def test_distinct_outcome_distributions(self, session):
        """The four non-default models are observably different from the
        default and from each other at the record level."""
        faults = (None, "mbu:k=2", "stuck:hold=0", "flicker:period=20,window=600",
                  "sram:k=2")
        results = {f: session.run(small_spec(fault=f)) for f in faults}
        summaries = {
            f: (
                tuple(sorted(r.outcome_counts().items())),
                r.persistent,
                tuple(
                    (rec.fault["model"], len(rec.fault["locations"]),
                     rec.fault["masked"])
                    for rec in r.records
                ),
            )
            for f, r in results.items()
        }
        assert len(set(summaries.values())) == len(faults)
        # and at the outcome-distribution level, the default (all-vanish
        # at this scale), stuck:hold=0 (all persistent) and sram:k=2
        # (no vanish) are pairwise distinct
        dist = lambda f: (
            results[f].outcome_counts()["Vanished"], results[f].persistent
        )
        assert len({dist(None), dist("stuck:hold=0"), dist("sram:k=2")}) == 3

    def test_fault_model_comparison_table(self, session):
        results = [
            session.run(small_spec(fault=f))
            for f in (None, "sram:k=2", "sram:k=1")
        ]
        headers, rows = fault_model_comparison(results)
        assert headers[0] == "Fault model"
        assert [row[0] for row in rows] == ["seu", "sram", "sram:k=1"]
        assert rows[2][-1] == str(results[2].injections)  # all masked

    def test_caching_executor_round_trips_fault_specs(self, tmp_path):
        specs = [small_spec(n=2), small_spec(n=2, fault="mbu:k=2")]
        executor = CachingExecutor(tmp_path, SerialExecutor())
        first = executor.run(specs)
        assert (executor.last_hits, executor.last_misses) == (0, 2)
        again = CachingExecutor(tmp_path, SerialExecutor()).run(specs)
        assert [r.to_dict() for r in again] == [r.to_dict() for r in first]
        assert {p.stem for p in tmp_path.glob("*.json")} == {
            s.digest() for s in specs
        }


# ----------------------------------------------------------------------
# result serialization (fault metadata survives aggregation)
# ----------------------------------------------------------------------
class TestResultRoundTrip:
    def test_lossless_round_trip(self, session):
        spec = small_spec(fault="mbu:k=2")
        result = session.run(spec)
        clone = ExperimentResult.from_dict(
            json.loads(json.dumps(result.to_dict()))
        )
        assert clone == result
        assert clone.outcome_counts() == result.outcome_counts()
        assert clone.persistent == result.persistent
        # the flip locations and fault events survive aggregation
        runs = session.campaign(spec)
        assert [r.flip_location for r in clone.records] == [
            r.flip_location for r in runs
        ]
        assert [r.fault for r in clone.records] == [
            r.fault_event.to_dict() for r in runs
        ]
        assert all(len(r.fault["locations"]) == 2 for r in clone.records)


# ----------------------------------------------------------------------
# live-fault mechanics (unit level)
# ----------------------------------------------------------------------
class _StubAdapter:
    """Records every location-addressed injection call."""

    def __init__(self):
        self.calls = []

    def flip_at(self, name, entry, bit):
        self.calls.append(("flip", name, entry, bit))
        return (name, entry, bit)

    def force_at(self, name, entry, bit, value):
        self.calls.append(("force", name, entry, bit, value))
        return True


class TestLiveFaults:
    def test_stuck_live_reasserts_until_release(self):
        live = StuckAt(hold=3).live(
            FaultEvent("stuck", "l2c", locations=[("r", 0, 1)]),
            inject_cycle=100,
        )
        adapter = _StubAdapter()
        fired = []
        while live.next_active_cycle() is not None:
            cycle = live.next_active_cycle()
            fired.append(cycle)
            live.fire(adapter, cycle)
        assert fired == [101, 102, 103]
        assert all(c[0] == "force" for c in adapter.calls)

    def test_intermittent_live_follows_duty_cycle(self):
        live = IntermittentFlip(period=10, window=35).live(
            FaultEvent("flicker", "l2c", locations=[("r", 0, 1)]),
            inject_cycle=100,
        )
        adapter = _StubAdapter()
        fired = []
        while live.next_active_cycle() is not None:
            cycle = live.next_active_cycle()
            fired.append(cycle)
            live.fire(adapter, cycle)
        assert fired == [110, 120, 130]
        assert all(c[0] == "flip" for c in adapter.calls)

    def test_masked_events_have_no_live_fault(self):
        event = FaultEvent("stuck", "l2c", locations=[("r", 0, 1)], masked=True)
        assert StuckAt().live(event, 100) is None

    def test_one_shot_models_have_no_live_fault(self):
        event = FaultEvent("mbu", "l2c", locations=[("r", 0, 1)])
        assert MultiBitUpset().live(event, 100) is None
        assert SingleBitFlip().live(event, 100) is None

    def test_masked_apply_is_a_noop(self):
        adapter = _StubAdapter()
        event = FaultEvent(
            "sram", "l2c", locations=[("sram:tag_array", 0, 1)], masked=True
        )
        loc = SramFault(k=1).apply(adapter, event)
        assert loc == ("sram:tag_array", 0, 1)
        assert adapter.calls == []
