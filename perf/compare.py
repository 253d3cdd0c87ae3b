"""Compare benchmark reports of a parent and a change, pair by pair.

    python3 perf/compare.py PARENT_1.json ... PARENT_k.json \
                            CHANGE_1.json ... CHANGE_k.json

The first half of the files are the parent's reports, the second half
the change's, each written by ``perf/run.py --json`` (usually with
``--repeats 1``); report ``i`` of each side forms pair ``i``.  At least
ten pairs are needed, run alternately (parent first in one pair, change
first in the next), on one host with one seed and one workload size.

For every end-to-end metric of ``BENCHMARK.json`` and every workload the
row shows both medians and quartiles, the fraction of pairs the change
wins (ties count for neither side) and a verdict:

* ``improved``  -- the change wins at least nine tenths of the pairs and
  its median beats the parent's by more than the parent's quartile
  distance;
* ``unresolved`` -- the parent's own quartile distance, as a share of its
  median, is wider than the metric's bound (unless every change run
  beats every parent run);
* ``worse``     -- the change's median is worse than the parent's by more
  than the bound;
* ``no-worse``  -- otherwise.

Exits 1 when any row is ``worse``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10


def verdict(parent: list, change: list, better: str, bound: float) -> dict:
    """One comparison row; ``parent[i]`` and ``change[i]`` are a pair."""
    sign = 1.0 if better == "lower" else -1.0
    pm, cm = statistics.median(parent), statistics.median(change)
    pq = statistics.quantiles(parent, n=4)
    cq = statistics.quantiles(change, n=4)
    wins = sum(1 for p, c in zip(parent, change) if (p - c) * sign > 0)
    win_fraction = wins / len(parent)
    parent_iqr = pq[2] - pq[0]
    worse_by = (cm - pm) * sign / pm
    if better == "lower":
        all_better = max(change) < min(parent)
    else:
        all_better = min(change) > max(parent)
    if win_fraction >= 0.9 and worse_by < 0 and abs(cm - pm) > parent_iqr:
        result = "improved"
    elif parent_iqr / pm > bound and not all_better:
        result = "unresolved"
    elif worse_by > bound:
        result = "worse"
    else:
        result = "no-worse"
    return {
        "parent": {"median": pm, "q1": pq[0], "q3": pq[2]},
        "change": {"median": cm, "q1": cq[0], "q3": cq[2]},
        "wins": wins,
        "pairs": len(parent),
        "win_fraction": win_fraction,
        "verdict": result,
    }


def _comparable(doc: dict) -> dict:
    return {
        "host": doc["host"],
        "seed": doc["seed"],
        "smoke": doc["smoke"],
        "seconds": doc["seconds"],
        "sizes": doc["sizes"],
    }


def check_inputs(parents: list, changes: list) -> "str | None":
    """Why the reports cannot be compared, or ``None`` when they can."""
    if len(parents) != len(changes):
        return "give as many change reports as parent reports"
    if len(parents) < MIN_PAIRS:
        return f"need at least {MIN_PAIRS} pairs, got {len(parents)}"
    reference = _comparable(parents[0])
    for doc in parents + changes:
        theirs = _comparable(doc)
        for key in reference:
            if theirs[key] != reference[key]:
                return f"reports differ in {key}: {theirs[key]!r} vs {reference[key]!r}"
    firsts = [p["started"] < c["started"] for p, c in zip(parents, changes)]
    if any(a == b for a, b in zip(firsts, firsts[1:])):
        return "pairs do not alternate which side ran first"
    return None


def compare(parents: list, changes: list, benchmark: dict) -> list[dict]:
    rows = []
    for metric in benchmark["end_to_end"]:
        name = metric["name"]
        for workload in parents[0]["workloads"]:
            parent, change = (
                [doc["workloads"][workload]["metrics"][name]["median"] for doc in side]
                for side in (parents, changes)
            )
            row = verdict(parent, change, metric["better"], metric["bound"])
            row.update(
                metric=name,
                unit=metric["unit"],
                workload=workload,
                bound=metric["bound"],
            )
            rows.append(row)
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "reports", nargs="+", help="parent reports, then change reports"
    )
    parser.add_argument("--json", help="also write the rows to this file")
    args = parser.parse_args(argv)
    if len(args.reports) % 2:
        parser.error("give the parent reports, then as many change reports")
    docs = [json.loads(Path(path).read_text()) for path in args.reports]
    half = len(docs) // 2
    parents, changes = docs[:half], docs[half:]
    problem = check_inputs(parents, changes)
    if problem is not None:
        print(f"compare: refusing: {problem}", file=sys.stderr)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    rows = compare(parents, changes, benchmark)
    for row in rows:
        p, c = row["parent"], row["change"]
        print(
            f"{row['metric']:<18} {row['workload']:<14}"
            f" parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
            f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}] {row['unit']}"
            f"  wins {row['wins']}/{row['pairs']}  {row['verdict']}"
        )
    if args.json:
        Path(args.json).write_text(json.dumps(rows, indent=2) + "\n")
    return 1 if any(row["verdict"] == "worse" for row in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
