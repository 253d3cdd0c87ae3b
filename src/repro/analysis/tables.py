"""Reproductions of the paper's inventory tables (1, 3, 4, 5).

Each function returns ``(headers, rows)`` ready for
:func:`repro.utils.render.render_table`; the row values are computed
from the living models (not re-typed constants) wherever a model exists,
so drift between the models and the paper is caught by the benches.
"""

from __future__ import annotations

from repro.faults.inventory import build_module
from repro.faults.models import DEFAULT_FAULT
from repro.soc.address import AddressMap
from repro.soc.geometry import HIGHLEVEL_STATE_BYTES, T2_GEOMETRY, UNCORE_TARGETS
from repro.system.outcome import OUTCOME_ORDER
from repro.workloads import ALL_BENCHMARKS, REGISTRY


def build_rtl_model(component: str, amap: "AddressMap | None" = None):
    """Instantiate one RTL uncore model (for inventory inspection)."""
    return build_module(component, amap=amap, ways=8)


def table1_highlevel_state():
    """Table 1: high-level uncore state per instance."""
    headers = ["Uncore component", "High-level state", "Size per instance"]
    rows = []
    for comp in UNCORE_TARGETS:
        entries = HIGHLEVEL_STATE_BYTES[comp]
        if not entries:
            rows.append((T2_GEOMETRY[comp].long_name, "(none)", "-"))
        for name, size in entries.items():
            if size >= 1024**3:
                size_str = f"{size // 1024**3}GB"
            elif size >= 1024:
                size_str = f"{size // 1024}KB"
            else:
                size_str = f"{size}B"
            rows.append((T2_GEOMETRY[comp].long_name, name, size_str))
    return headers, rows


def table3_inventory():
    """Table 3: instances / flip-flops / gates per component.

    Flip-flop counts for the four studied components are read from the
    RTL models themselves.
    """
    headers = ["Component", "Instances", "Flip-flops (per instance)", "Gates (per instance)"]
    rows = []
    for comp, spec in T2_GEOMETRY.items():
        if comp in UNCORE_TARGETS:
            ffs = build_rtl_model(comp).flip_flop_count()
        else:
            ffs = spec.flip_flops
        rows.append((spec.long_name, spec.instances, ffs, spec.gates))
    return headers, rows


def table4_targets():
    """Table 4: target / protected / inactive split, from the models."""
    headers = [
        "Component (instances)",
        "Target FFs (%)",
        "Protected",
        "Inactive",
    ]
    rows = []
    for comp in UNCORE_TARGETS:
        spec = T2_GEOMETRY[comp]
        model = build_rtl_model(comp)
        counts = model.flip_flop_count_by_class()
        from repro.rtl.registers import FlipFlopClass

        target = counts[FlipFlopClass.TARGET]
        prot = counts[FlipFlopClass.PROTECTED]
        inact = counts[FlipFlopClass.INACTIVE]
        total = model.flip_flop_count()
        rows.append(
            (
                f"{spec.name.upper()} ({spec.instances})",
                f"{target} ({target / total:.1%})",
                f"{prot} ({prot / total:.1%})",
                f"{inact} ({inact / total:.1%})",
            )
        )
    return headers, rows


def table5_benchmarks(measured_cycles: "dict[str, int] | None" = None):
    """Table 5: benchmark suite with paper lengths and input sizes.

    ``measured_cycles`` (short -> cycles) adds the reproduction's
    measured error-free lengths alongside the paper's.
    """
    headers = ["Suite", "Benchmark", "Paper cycles", "Input file", "Measured cycles"]
    rows = []
    for short in ALL_BENCHMARKS:
        meta = REGISTRY[short][0]
        input_str = (
            f"{meta.input_file_bytes / 1024 / 1024:.1f}MB"
            if meta.input_file_bytes >= 1024 * 1024
            else (f"{meta.input_file_bytes // 1024}KB" if meta.input_file_bytes else "none")
        )
        measured = ""
        if measured_cycles and short in measured_cycles:
            measured = str(measured_cycles[short])
        rows.append(
            (meta.suite, f"{meta.name} ({short})", f"{meta.paper_cycles:,}", input_str, measured)
        )
    return headers, rows


def fault_model_comparison(results):
    """Outcome-vs-fault-model comparison table.

    ``results`` is a list of injection-mode
    :class:`~repro.api.result.ExperimentResult` cells (typically one
    benchmark/component under several ``fault`` specs).  One row per
    cell: the fault spec, the five Fig. 3 outcome rates, the erroneous
    headline, and how many events the Protection filter masked.
    """
    headers = (
        ["Fault model"]
        + [o.value for o in OUTCOME_ORDER]
        + ["erroneous", "masked"]
    )
    rows = []
    for result in results:
        if result.spec.mode != "injection":
            raise ValueError(
                f"fault_model_comparison needs injection cells, got "
                f"{result.spec.mode!r}"
            )
        rows.append(
            [result.spec.fault or DEFAULT_FAULT]
            + [f"{result.rate(o).rate:.2%}" for o in OUTCOME_ORDER]
            + [str(result.erroneous), str(result.masked_count())]
        )
    return headers, rows
