"""Tests of the stack benchmark's own arithmetic and plumbing."""

from __future__ import annotations

import json
import signal
import time
from pathlib import Path

import compare
import pytest
from stackbench import metrics, report, stats, workloads
from stackbench.calibrate import SpeedClock
from stackbench.compile_run import run_compile_workload
from stackbench.spans import SpanRecorder

ROOT = Path(__file__).resolve().parents[2]


# --------------------------------------------------------------- statistics


@pytest.mark.parametrize(
    "n, expected",
    [(20_000, 99.9), (2750, 99.0), (245, 95.0), (100, 90.0), (45, 75.0), (21, None)],
)
def test_percentile_rule_needs_ten_samples_beyond(n, expected):
    assert stats.highest_supported_percentile(n) == expected


def test_percentile_interpolates():
    assert stats.percentile([1, 2, 3, 4, 5], 50) == 3
    assert stats.percentile([10, 20], 75) == 17.5


def test_quartiles_match_the_drivers_definition():
    values = [5.0, 1.0, 4.0, 2.0, 3.0, 9.0, 7.0, 8.0, 6.0, 10.0]
    assert stats.quartiles(values) == (2.75, 8.25)
    assert stats.quartiles([4.2]) == (4.2, 4.2)


# ------------------------------------------------------------- calibration


def test_reference_seconds_take_out_the_samples_and_scale_by_speed():
    clock = SpeedClock()
    clock.starts = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
    clock.seconds = [0.004, 0.001, 0.002, 0.002, 0.004, 0.001, 0.001, 0.004]
    # [3.5, 5.5] holds the samples at 4.0 and 5.0; two more count on either side
    speed = (1 + 0.5 + 0.5 + 0.25 + 1 + 1) / 6
    assert clock.speed(3.5, 5.5) == pytest.approx(speed)
    assert clock.reference_seconds(3.5, 5.5) == pytest.approx((2.0 - 0.006) * speed)
    # before the first sample: the nearest ones still give a speed
    assert clock.speed(0.1, 0.2) == pytest.approx((0.25 + 1) / 2)
    assert clock.median_factor() == pytest.approx(2.0)


def test_speed_clock_samples_the_main_thread_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = SpeedClock()
    with clock:
        start = time.perf_counter()
        while time.perf_counter() - start < 0.1:
            pass
        end = time.perf_counter()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    inside = [t for t in clock.starts if start <= t <= end]
    assert len(inside) >= 3
    assert 0 < clock.reference_seconds(start, end) * clock.median_factor() < 2 * (end - start)


# -------------------------------------------------------------------- spans


def test_self_time_is_span_minus_direct_children():
    rec = SpanRecorder()
    with rec.span("compile") as outer:
        parent = rec.reported("pnr", 10.0)
        rec.reported("pnr.place", 3.0, parent=parent.id)
        route = rec.reported("pnr.route", 4.0, parent=parent.id)
        rec.reported("pnr.route.expand", 1.5, parent=route.id)
        with rec.span("mapping") as inner:
            pass
    own = rec.self_seconds()
    assert own[parent.id] == pytest.approx(3.0)  # 10 - 3 - 4, not the grandchild
    assert own[route.id] == pytest.approx(2.5)
    assert inner.parent == outer.id and parent.parent == outer.id
    assert own[outer.id] == pytest.approx(outer.seconds - 10.0 - inner.seconds)
    totals = rec.seconds_by_name()
    assert totals["pnr.place"] == 3.0 and totals["pnr"] == 10.0
    assert rec.seconds_by_name(self_time=True)["pnr"] == pytest.approx(3.0)


def test_spans_can_be_folded_for_some_ops_only():
    rec = SpanRecorder()
    for op, seconds in (("a", 1.0), ("b", 2.0)):
        with rec.span("compile", op=op):
            rec.reported("mapping", seconds)
    assert rec.seconds_by_name()["mapping"] == 3.0
    assert rec.seconds_by_name(ops=["b"])["mapping"] == 2.0
    assert rec.seconds_by_name(self_time=True, ops=["a"])["mapping"] == 1.0


# ---------------------------------------------------------------- workloads


@pytest.mark.parametrize("workload", metrics.COMPILE_WORKLOADS)
def test_compile_points_depend_only_on_the_seed(workload):
    first = workloads.compile_points(workload, 0)
    assert first == workloads.compile_points(workload, 0)
    other = workloads.compile_points(workload, 1)
    assert [p.key for p in other] != [p.key for p in first]
    if workload != "pnr_cold":  # the fixed grids: same points, another order
        assert sorted(p.key for p in other) == sorted(p.key for p in first)


def test_pnr_cold_seeds_the_generated_graphs_and_pins_the_timed_points():
    points = workloads.compile_points("pnr_cold", 7)
    seeded = [p for p in points if p.seeded]
    assert {p.key for p in seeded} == {f"fuzz-7-{i}" for i in range(workloads.FUZZ_GRAPHS)}
    assert all(p.options["seed"] == 7 for p in seeded)
    # the timed points are the same work at every seed
    timed = {p.key: p.options for p in points if not p.seeded}
    assert timed == {
        p.key: p.options for p in workloads.compile_points("pnr_cold", 8) if not p.seeded
    }
    assert all(options["seed"] == workloads.ZOO_PNR_SEED for options in timed.values())


def test_serve_round_orders_a_fixed_multiset_by_seed():
    order = workloads.serve_round(0, 0)
    assert order == workloads.serve_round(0, 0)
    assert order != workloads.serve_round(1, 0)
    assert order != workloads.serve_round(0, 1)
    assert sorted(order) == sorted(workloads.serve_round(1, 3))
    assert len(order) == workloads.REQUESTS_PER_ROUND == 399
    assert set(order) == set(workloads.serve_catalogue())
    assert len(workloads.serve_catalogue()) == 49
    # every duplication is the favourite of exactly one model
    favourite = 1 + workloads.REPEATS_BY_RANK[0]
    hot = [key for key in set(order) if order.count(key) == favourite]
    assert sorted(dup for _, dup in hot) == sorted(workloads.SERVE_DUPLICATIONS)


def test_stop_rule_keeps_the_minimum_and_the_budget():
    assert not workloads.enough(2, 100.0, 20.0, minimum=3)
    assert workloads.enough(3, 24.0, 20.0, minimum=3)
    assert not workloads.enough(3, 3.0, 20.0, minimum=3)
    assert workloads.enough(3, 18.0, 20.0, minimum=3)  # half a pass no longer fits


# ------------------------------------------------------------------ compare


def _result_file(path: Path, values: dict[str, list[float]], failed: int = 0) -> str:
    runs = []
    for i in range(len(next(iter(values.values())))):
        entries = {name: {"value": series[i]} for name, series in values.items()}
        entries["fail_share"] = {"value": failed / 100}
        runs.append({"workloads": {"frontend_sweep": {"metrics": entries}}})
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def _verdicts(tmp_path, a, b, **kwargs) -> tuple[dict[str, str], bool]:
    rows, regressed = compare.compare(
        _result_file(tmp_path / "a.json", a), _result_file(tmp_path / "b.json", b, **kwargs)
    )
    return {row.split()[1]: row.split()[-1] for row in rows[1:]}, regressed


def test_compare_applies_each_metrics_bound(tmp_path):
    bound = metrics.BY_NAME["pass_wall_s"].bound
    steady = [1.00, 1.01, 0.99, 1.00]
    verdicts, regressed = _verdicts(
        tmp_path,
        {"pass_wall_s": steady, "op_gmean_ms": steady, "qor_density_gmean": [5.0] * 4},
        {
            "pass_wall_s": [v * (1 + 2 * bound) for v in steady],
            "op_gmean_ms": [v * (1 - 2 * bound) for v in steady],
            "qor_density_gmean": [5.0] * 4,
        },
    )
    assert verdicts["pass_wall_s"] == "regressed" and regressed
    assert verdicts["op_gmean_ms"] == "improved"
    assert verdicts["qor_density_gmean"] == "unchanged"


def test_compare_reports_unresolved_when_spread_exceeds_the_bound(tmp_path):
    noisy = [1.0, 1.6, 0.7, 1.3]
    verdicts, regressed = _verdicts(
        tmp_path, {"pass_wall_s": noisy}, {"pass_wall_s": [1.1, 1.5, 0.8, 1.4]}
    )
    assert verdicts["pass_wall_s"] == "unresolved" and not regressed
    # ... unless every run of the change is worse than every baseline run
    verdicts, regressed = _verdicts(
        tmp_path, {"pass_wall_s": noisy}, {"pass_wall_s": [2.0, 3.1, 1.7, 2.6]}
    )
    assert verdicts["pass_wall_s"] == "regressed" and regressed


def test_compare_exact_metrics_and_fail_share(tmp_path):
    verdicts, regressed = _verdicts(
        tmp_path, {"qor_density_gmean": [5.0, 5.0]}, {"qor_density_gmean": [4.999, 4.999]}
    )
    assert verdicts["qor_density_gmean"] == "regressed" and regressed
    verdicts, regressed = _verdicts(
        tmp_path, {"pass_wall_s": [1.0, 1.0]}, {"pass_wall_s": [0.5, 0.5]}, failed=1
    )
    assert verdicts["fail_share"] == "regressed" and regressed
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "b.json")]) == 1
    assert compare.main([str(tmp_path / "a.json"), str(tmp_path / "a.json")]) == 0


def test_compare_never_excuses_a_higher_fail_share_by_its_spread():
    metric = metrics.BY_NAME["fail_share"]
    clean = compare.side([{"value": 0.0}] * 4)
    flaky = compare.side([{"value": v} for v in (0.0, 0.1, 0.0, 0.2)])
    assert compare.judge(metric, clean, flaky)[0] == "regressed"
    assert compare.judge(metric, flaky, clean)[0] == "improved"


# ------------------------------------------------------- contract and runner


def test_benchmark_json_lists_the_metric_tables():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(metrics.WORKLOADS)
    assert [w["why"] for w in declared["workloads"]] == [
        workloads.WHY[name] for name in metrics.WORKLOADS
    ]
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in metrics.END_TO_END
    ]
    assert declared["per_layer"] == [
        {"name": m.name, "unit": m.unit, "better": m.better} for m in metrics.PER_LAYER
    ]
    assert declared["paths"] == ["benchmarks/stack"]


def test_runner_end_to_end_on_an_injected_workload():
    common = {"run_pnr": True, "emit_bitstream": True, "seed": 0}
    points = [
        workloads.Point("MLP-500-100/d1", model="MLP-500-100", options=dict(common)),
        workloads.Point("LeNet/d1/c2", model="LeNet", options={**common, "num_chips": 2}),
    ]
    pinned = {"injected": {"MLP-500-100/d1": "not-the-digest"}}

    untraced = run_compile_workload(
        "injected", 0, seconds=0.0, trace=False, expected=pinned, points=points, min_passes=1
    )
    assert untraced["passes"] == 1 and untraced["attempted"] == 2
    assert untraced["failed"] == 1  # the pinned digest is wrong on purpose
    assert "expected_seed0.json" in untraced["failures"][0]

    record = run_compile_workload("injected", 0, seconds=0.0, trace=True, points=points)
    assert record["failed"] == 0, record["failures"]  # traced == untraced summaries
    assert record["attempted"] == 6 and record["passes"] == 2
    values = {name: entry["value"] for name, entry in record["metrics"].items()}
    assert values["pass_wall_s"] > 0 and values["op_gmean_ms"] > 0
    assert values["qor_wirelength"] > 0 and values["qor_config_bits"] > 0
    assert values["pnr.place_s"] > 0 and values["pnr.route_s"] > 0
    assert values["partition.shards"] == 2 and values["mapper.blocks"] > 0
    assert values["analysis.violations"] == 0
    assert values["pnr.jobs_scaling"] > 0
    pnr = sum(values[f"pnr.{stage}_s"] for stage in ("place", "rrgraph", "route", "timing"))
    assert pnr > 0.5 * values["pass_wall_s"]
    assert abs(values["core.unattributed_share"]) < 0.5

    record["metrics"]["setup_s"] = {"value": 0.5}
    record["metrics"]["peak_rss_mb"] = {"value": 50.0}
    report.finish_metrics(record)
    line = json.loads(report.contract_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert list(line["metrics"]) == [m.name for m in metrics.PER_LAYER]
    assert line["correct"] is True and line["metrics"]["serve_rps"]["value"] == 0.0
    assert "pnr.place_s" in report.format_record(record)
