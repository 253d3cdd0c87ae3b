"""Operational snapshots of the metrics registry.

:func:`snapshot` freezes the current registry (plus process vitals)
into a plain dict; :func:`render_table` and :func:`render_prometheus`
turn a snapshot into the two ``repro top`` output formats.  Sweeps can
periodically :func:`write_snapshot` to a file that a concurrent
``repro top --follow`` reads -- the same provider/viewer split the
serve daemon will reuse.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path

from repro.obs.registry import REGISTRY
from repro.utils.atomic import write_atomic

SNAPSHOT_VERSION = 1


def snapshot(registry=None) -> dict:
    """Freeze the registry (default: the process-wide one) plus process
    vitals into a JSON-serializable dict."""
    from repro.obs import cpu_seconds, rss_kb

    reg = registry if registry is not None else REGISTRY
    return {
        "snapshot_version": SNAPSHOT_VERSION,
        "pid": os.getpid(),
        "time": round(time.time(), 3),
        "process": {
            "rss_kb": rss_kb(),
            "cpu_seconds": round(cpu_seconds(), 3),
        },
        "metrics": reg.to_dict(),
    }


def write_snapshot(path: "str | Path", registry=None) -> dict:
    """Atomically write a snapshot file (write-then-rename, matching the
    result cache's crash discipline); returns the snapshot."""
    doc = snapshot(registry)
    write_atomic(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return doc


def read_snapshot(path: "str | Path") -> dict:
    """Load a snapshot from a file, or -- when ``path`` is an
    ``http(s)://`` URL -- from a serve daemon's ``/metrics`` endpoint,
    so ``repro top URL --follow`` watches a live daemon the same way it
    watches a sweep's ``--obs-out`` file.  Network failures surface as
    ``OSError`` (``urllib.error.URLError`` subclasses it), the same
    family a missing file raises."""
    text = str(path)
    if text.startswith(("http://", "https://")):
        from urllib.request import urlopen

        with urlopen(text, timeout=10.0) as resp:
            return json.loads(resp.read().decode("utf-8"))
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ----------------------------------------------------------------------
# renderers
# ----------------------------------------------------------------------
def _metric_cells(name: str, body: dict) -> tuple:
    kind = body.get("kind", "?")
    if kind == "counter":
        return (name, kind, str(body.get("value", 0)))
    if kind == "gauge":
        value = body.get("value", 0)
        shown = f"{value:.3f}" if isinstance(value, float) else str(value)
        return (name, kind, shown)
    if kind == "timer":
        return (
            name,
            kind,
            f"{body.get('seconds', 0.0):.3f}s / {body.get('count', 0)} calls",
        )
    if kind == "histogram":
        count = body.get("count", 0)
        total = body.get("total", 0.0)
        mean = total / count if count else 0.0
        return (name, kind, f"n={count} mean={mean:.6f}")
    return (name, kind, json.dumps(body, sort_keys=True))


def render_table(doc: dict) -> str:
    """The human ``repro top`` view: process vitals plus one row per
    metric."""
    process = doc.get("process", {})
    header = (
        f"pid {doc.get('pid', '?')}  "
        f"rss {process.get('rss_kb', 0) / 1024:.0f}MB  "
        f"cpu {process.get('cpu_seconds', 0.0):.1f}s  "
        f"at {time.strftime('%H:%M:%S', time.localtime(doc.get('time', 0)))}"
    )
    metrics = doc.get("metrics", {})
    if not metrics:
        return header + "\n(no metrics registered -- run with --obs / REPRO_OBS=1)"
    rows = [_metric_cells(name, body) for name, body in sorted(metrics.items())]
    widths = [
        max(len(row[col]) for row in rows + [("metric", "kind", "value")])
        for col in range(3)
    ]
    lines = [header, ""]
    lines.append(
        "  ".join(h.ljust(w) for h, w in zip(("metric", "kind", "value"), widths))
    )
    lines.append("  ".join("-" * w for w in widths))
    for row in rows:
        lines.append("  ".join(cell.ljust(w) for cell, w in zip(row, widths)))
    return "\n".join(lines)


_PROM_BAD = re.compile(r"[^a-zA-Z0-9_]")
_LABEL_SUFFIX = re.compile(r"\[(.*)\]$")


def _prom_name(name: str) -> str:
    name = _PROM_BAD.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return "repro_" + name


def _prom_labels(labels: dict) -> str:
    if not labels:
        return ""
    body = ",".join(
        f'{_PROM_BAD.sub("_", k)}="{v}"' for k, v in sorted(labels.items())
    )
    return "{" + body + "}"


def render_prometheus(doc: dict) -> str:
    """The snapshot in Prometheus text-exposition format 0.0.4."""
    lines: list[str] = []
    process = doc.get("process", {})
    lines.append("# TYPE repro_process_rss_kb gauge")
    lines.append(f"repro_process_rss_kb {process.get('rss_kb', 0)}")
    lines.append("# TYPE repro_process_cpu_seconds counter")
    lines.append(f"repro_process_cpu_seconds {process.get('cpu_seconds', 0.0)}")
    typed: set[str] = set()

    def declare(name: str, kind: str) -> None:
        # one TYPE line per metric name even when label sets fan out
        if name not in typed:
            typed.add(name)
            lines.append(f"# TYPE {name} {kind}")

    for display_name, body in sorted(doc.get("metrics", {}).items()):
        match = _LABEL_SUFFIX.search(display_name)
        labels = {}
        base = display_name
        if match:
            base = display_name[: match.start()]
            for pair in match.group(1).split(","):
                if "=" in pair:
                    k, v = pair.split("=", 1)
                    labels[k] = v
        labels = body.get("labels", labels)
        name = _prom_name(base)
        kind = body.get("kind", "")
        label_str = _prom_labels(labels)
        if kind == "counter":
            declare(name, "counter")
            lines.append(f"{name}{label_str} {body.get('value', 0)}")
        elif kind == "gauge":
            declare(name, "gauge")
            lines.append(f"{name}{label_str} {body.get('value', 0)}")
        elif kind == "timer":
            declare(f"{name}_seconds", "counter")
            lines.append(
                f"{name}_seconds{label_str} {body.get('seconds', 0.0)}"
            )
            declare(f"{name}_count", "counter")
            lines.append(f"{name}_count{label_str} {body.get('count', 0)}")
        elif kind == "histogram":
            declare(name, "histogram")
            bounds = body.get("bounds", [])
            buckets = body.get("buckets", [])
            cumulative = 0
            for bound, bucket in zip(bounds, buckets):
                cumulative += bucket
                extra = {**labels, "le": f"{float(bound):g}"}
                lines.append(f"{name}_bucket{_prom_labels(extra)} {cumulative}")
            cumulative += buckets[-1] if len(buckets) > len(bounds) else 0
            extra = {**labels, "le": "+Inf"}
            lines.append(f"{name}_bucket{_prom_labels(extra)} {cumulative}")
            lines.append(f"{name}_sum{label_str} {body.get('total', 0.0)}")
            lines.append(f"{name}_count{label_str} {body.get('count', 0)}")
    return "\n".join(lines) + "\n"
