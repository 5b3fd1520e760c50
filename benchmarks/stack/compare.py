#!/usr/bin/env python3
"""Compare two result files of ``run.py``: ``compare.py A.json B.json``.

A is the baseline, B the change.  Each file is one *set* of runs (``run.py
--out FILE`` appends).  One row per (workload, gated metric): both medians
and quartiles, the change, the metric's bound and a verdict.  Exits 1 when
any row regressed, which includes any higher ``fail_share``.

Verdicts follow the choosing-metrics guide: a metric whose run-to-run
spread is wider than its bound is ``unresolved``, not ``unchanged``, unless
every run of one side beats every run of the other.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from stackbench import stats  # noqa: E402
from stackbench.metrics import WORKLOADS, Metric, gated  # noqa: E402


def worsening(metric: Metric, baseline: float, change: float) -> float:
    """By what share of the baseline ``change`` is worse (negative: better)."""
    delta = change - baseline if metric.better == "lower" else baseline - change
    if baseline == 0:
        return 0.0 if delta == 0 else float("inf") if delta > 0 else float("-inf")
    return delta / abs(baseline)


def side(entries: list[dict]) -> dict[str, float]:
    """Median and quartiles of one side.  Several runs: across the runs.
    A single run: the quartiles it recorded over its own passes, if any."""
    values = [entry["value"] for entry in entries]
    if len(values) == 1:
        only = entries[0]
        return {
            "median": values[0],
            "q1": only.get("q1", values[0]),
            "q3": only.get("q3", values[0]),
            "n": 1,
            "values": values,
        }
    return {**stats.summarize(values), "values": values}


def judge(metric: Metric, a: dict, b: dict) -> tuple[str, float]:
    """(verdict, worsening of B's median against A's)."""
    worse = worsening(metric, a["median"], b["median"])
    spread = max(
        (s["q3"] - s["q1"]) / abs(s["median"]) if s["median"] else 0.0 for s in (a, b)
    )
    pairs = [(x, y) for x in a["values"] for y in b["values"]]
    all_worse = all(worsening(metric, x, y) > 0 for x, y in pairs)
    all_better = all(worsening(metric, x, y) < 0 for x, y in pairs)
    # a metric that must not worsen at all (fail_share, config bits) is
    # never excused by its spread
    noisy = metric.bound > 0 and spread > metric.bound
    if worse > metric.bound and (not noisy or all_worse):
        return "regressed", worse
    if noisy and not all_better and worse != 0:
        return "unresolved", worse
    if -worse > metric.bound:
        return "improved", worse
    return "unchanged", worse


def load(path: str) -> dict[str, dict[str, list[dict]]]:
    """``{workload: {metric: [entry of each run]}}`` of a result file."""
    with open(path, "r", encoding="utf-8") as handle:
        runs = json.load(handle)["runs"]
    table: dict[str, dict[str, list[dict]]] = {}
    for run in runs:
        for workload, record in run["workloads"].items():
            for name, entry in record["metrics"].items():
                table.setdefault(workload, {}).setdefault(name, []).append(entry)
    return table


def compare(a_path: str, b_path: str) -> tuple[list[str], bool]:
    """The printed rows and whether any of them regressed."""
    a_table, b_table = load(a_path), load(b_path)
    rows = [
        f"{'workload':<15} {'metric':<22} {'unit':<10} "
        f"{'A median [q1, q3] n':<40} {'B median [q1, q3] n':<40} {'worse by':>9} "
        f"{'bound':>7}  verdict"
    ]
    regressed = False
    for workload in WORKLOADS:
        if workload not in a_table or workload not in b_table:
            continue
        for metric in gated(workload):
            if metric.name not in a_table[workload] or metric.name not in b_table[workload]:
                continue
            a = side(a_table[workload][metric.name])
            b = side(b_table[workload][metric.name])
            verdict, worse = judge(metric, a, b)
            regressed |= verdict == "regressed"

            def cell(s: dict) -> str:
                return f"{s['median']:.6g} [{s['q1']:.6g}, {s['q3']:.6g}] n={s['n']}"

            rows.append(
                f"{workload:<15} {metric.name:<22} {metric.unit:<10} "
                f"{cell(a):<40} {cell(b):<40} {worse:>+9.2%} {metric.bound:>7.2g}  {verdict}"
            )
    return rows, regressed


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip().splitlines()[0], file=sys.stderr)
        return 2
    rows, regressed = compare(*argv)
    print("\n".join(rows))
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
