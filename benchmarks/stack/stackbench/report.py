"""Result records: the host fingerprint, the printed report, the result
file ``compare.py`` reads and the one-line JSON the driver reads."""

from __future__ import annotations

import importlib.util
import json
import multiprocessing
import os
import platform
import subprocess
from typing import Any

from . import stats
from .metrics import BY_NAME, END_TO_END, PER_LAYER


def host_fingerprint(root: str) -> dict[str, Any]:
    """What a reader needs to judge whether two result files compare."""
    import numpy

    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=root,
            capture_output=True,
            text=True,
            timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = ""
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "mp_start_method": multiprocessing.get_start_method(),
        "git_sha": sha or "unknown",
        "machine": platform.machine(),
    }


def finish_metrics(record: dict[str, Any]) -> None:
    """Attach units, and give a traced record every per-layer metric: a
    layer that did no work in this workload reads 0."""
    measured = record["metrics"]
    if record["trace"]:
        for metric in PER_LAYER:
            measured.setdefault(metric.name, {"value": 0.0})
    metrics = record["metrics"] = {
        name: measured[name] for name in BY_NAME if name in measured
    }
    for name, entry in metrics.items():
        entry["unit"] = BY_NAME[name].unit
        if name.endswith(("_p95_ms", "_p99_ms")) and "n" in entry:
            pct = 95.0 if "p95" in name else 99.0
            entry["supported"] = pct <= (stats.highest_supported_percentile(entry["n"]) or 0.0)


def format_record(record: dict[str, Any]) -> str:
    """The printed report of one workload: every metric by name with its
    unit, the sample count next to every median and percentile."""
    lines = [
        f"== {record['workload']}  seed={record['seed']}  "
        f"{'traced' if record['trace'] else 'untraced'}  "
        f"passes={record['passes']}  ops={record['attempted']}  "
        f"failed={record['failed']}"
        + (f"  speed_factor={record['speed_factor']:.3f}" if "speed_factor" in record else "")
    ]
    for name, entry in record["metrics"].items():
        notes = []
        if "n" in entry:
            notes.append(f"n={entry['n']}")
        if "q1" in entry:
            notes.append(f"q1={entry['q1']:.6g} q3={entry['q3']:.6g}")
        if "raw" in entry:
            notes.append(f"raw={entry['raw']:.6g}")
        if entry.get("supported") is False:
            notes.append(f"fewer than {stats.MIN_SAMPLES_BEYOND} samples beyond")
        note = f"  ({', '.join(notes)})" if notes else ""
        lines.append(f"  {name:<34} {entry['value']:>16.6g} {entry['unit']:<10}{note}")
    lines.append("  per point (median ms, n):")
    for key, point in sorted(record["points"].items()):
        lines.append(f"    {key:<28} {point['median_ms']:>12.3f}  n={point['n']}")
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    return "\n".join(lines)


def contract_line(record: dict[str, Any]) -> str:
    """The driver's result: the last line of standard output."""
    wanted = PER_LAYER if record["trace"] else END_TO_END
    metrics = {
        m.name: {"value": record["metrics"][m.name]["value"], "unit": m.unit}
        for m in wanted
    }
    return json.dumps(
        {
            "correct": record["failed"] == 0,
            "attempted": record["attempted"],
            "failed": record["failed"],
            "metrics": metrics,
        }
    )


def append_run(path: str, run: dict[str, Any]) -> None:
    """Result files hold a list of runs, so that one file is one *set* of
    runs of a commit and ``compare.py`` can take medians and quartiles."""
    data = {"runs": []}
    if os.path.exists(path):
        with open(path, "r", encoding="utf-8") as handle:
            data = json.load(handle)
    data["runs"].append(run)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(data, handle, indent=1, sort_keys=True)
