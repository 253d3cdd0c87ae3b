"""Smoke test of the benchmark: every workload at smoke size (one
benchmark, n=1), one untraced and one traced run each."""

from __future__ import annotations

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from perf import run as perf_run
from perf import trace as perf_trace

ROOT = Path(__file__).resolve().parent.parent
RUN = [sys.executable, str(ROOT / "perf" / "run.py")]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())
INJECTION = ("seu-mix", "cosim-flicker", "handover-sram", "table5-cold")


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("perf") / "result.json"
    proc = subprocess.run(
        RUN + ["--smoke", "--repeats", "1", "--seconds", "0", "--json", str(out)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    return proc.stdout, json.loads(out.read_text())


def test_every_metric_is_printed_with_its_unit(smoke):
    stdout, doc = smoke
    assert set(doc["workloads"]) == {w["name"] for w in BENCHMARK["workloads"]}
    for section, key in (("end_to_end", "metrics"), ("per_layer", "per_layer")):
        for metric in BENCHMARK[section]:
            name, unit = metric["name"], metric["unit"]
            assert re.fullmatch(r"[A-Za-z0-9_.-]+", name)
            pattern = rf"^\s+{re.escape(name)}\s+\S+\s+{re.escape(unit)}(\s|$)"
            assert len(re.findall(pattern, stdout, re.M)) == len(doc["workloads"])
            for entry in doc["workloads"].values():
                assert entry[key][name]["unit"] == unit


def test_cells_match_the_frozen_digests(smoke):
    _, doc = smoke
    for name, entry in doc["workloads"].items():
        assert entry["digests"] == "checked"
        assert entry["metrics"]["cells_failed"]["max"] == 0, entry["failures"]
        assert entry["failures"] == [] and entry["trace_failures"] == []
        stored = json.loads(perf_run.DIGESTS.read_text())["smoke"][name]
        assert perf_run.cell_failures(entry["cells"], stored) == []
        label = entry["cells"][0]["label"]
        corrupted = dict(stored, **{label: "0" * 64})
        assert len(perf_run.cell_failures(entry["cells"], corrupted)) == 1


def test_spans_nest_without_negative_self_time(smoke):
    _, doc = smoke
    for entry in doc["workloads"].values():
        spans = []
        for line in Path(entry["trace_file"]).read_text().splitlines():
            rec = json.loads(line)
            args = rec["args"]
            spans.append(
                {
                    "id": args["id"],
                    "parent": args["parent"],
                    "name": rec["name"],
                    "t0": rec["ts"],
                    "t1": rec["ts"] + rec["dur"],
                    "self": args.get("self", 0.0),
                }
            )
        assert spans
        assert perf_trace.check_spans(spans) == []


def test_exact_counts_agree_between_traced_and_untraced(smoke):
    _, doc = smoke
    for name, entry in doc["workloads"].items():
        assert entry["exact"]["traced"] == entry["exact"]["untraced"]
        layer = {key: m["value"] for key, m in entry["per_layer"].items()}
        exact = entry["exact"]["untraced"]
        phases = sum(
            v for key, v in layer.items() if re.fullmatch(r"phase\.\w+_cycles", key)
        )
        assert phases + layer["platform.golden_cycles"] == exact["machine.cycles"]
        ends = ("vanished", "handover", "cap", "trap")
        cosim = sum(layer[f"cosim.{end}"] for end in ends)
        runs = exact["platform.runs"]
        assert cosim == (runs if name in INJECTION else 0)
        assert abs(1.0 - entry["closure"]) <= 0.05


def test_measured_run_prints_the_result_line():
    proc = subprocess.run(
        RUN
        + ["--workload", "handover-sram", "--seed", "2015", "--seconds", "0"]
        + ["--trace", "0", "--smoke"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 1
    assert set(result["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())
