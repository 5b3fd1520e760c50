"""The subgraph-dedup section of the benchmark harness."""

from __future__ import annotations

import json

import pytest

from repro.bench import (
    BenchReport,
    build_parser,
    compare_reports,
    format_dedup_section,
    run_dedup_bench,
    run_from_args,
)
from repro.errors import InvalidRequestError


def _dedup_section(**overrides) -> dict:
    section = {
        "models": ["VGG11", "VGG16"],
        "target": "VGG16",
        "seed": 0,
        "samples": 3,
        "baseline_synth_map_seconds": 0.040,
        "cold_synth_map_seconds": 0.026,
        "warm_synth_map_seconds": 0.022,
        "speedup": 1.8,
        "reduction": 0.45,
        "warm_dedup_hits": 56,
        "warm_dedup_misses": 6,
        "warm_hit_rate": 56 / 62,
        "summaries_identical": True,
        "fuzz": {
            "spec_id": "abc123",
            "repeat": 3,
            "cold_dedup_hits": 12,
            "cold_dedup_misses": 13,
            "cold_hit_rate": 12 / 25,
            "warm_dedup_hits": 25,
            "warm_dedup_misses": 0,
            "warm_hit_rate": 1.0,
        },
    }
    section.update(overrides)
    return section


class TestDedupSection:
    def test_report_roundtrip(self):
        report = BenchReport(created_at=1.0, dedup=_dedup_section())
        again = BenchReport.from_dict(json.loads(report.to_json()))
        assert again.dedup == report.dedup

    def test_reports_without_dedup_stay_compatible(self):
        report = BenchReport(created_at=1.0)
        data = report.to_dict()
        assert "dedup" not in data
        assert BenchReport.from_dict(data).dedup is None

    def test_format_is_human_readable(self):
        text = format_dedup_section(_dedup_section())
        assert "VGG11 -> VGG16" in text
        assert "90%" in text
        assert "yes" in text


class TestDedupRegressions:
    def test_clean_pass(self):
        current = BenchReport(dedup=_dedup_section())
        assert compare_reports(current, BenchReport()) == []

    def test_speedup_is_reported_not_gated(self):
        current = BenchReport(dedup=_dedup_section(speedup=0.77, reduction=-0.3))
        assert compare_reports(current, BenchReport()) == []

    def test_hit_rate_floor(self):
        current = BenchReport(
            dedup=_dedup_section(warm_hit_rate=0.1, warm_dedup_hits=1,
                                 warm_dedup_misses=9)
        )
        regressions = compare_reports(current, BenchReport())
        assert any("hit rate" in r for r in regressions)
        assert compare_reports(current, BenchReport(), dedup_min_hit_rate=0.0) == []

    def test_divergent_summaries_flagged(self):
        current = BenchReport(dedup=_dedup_section(summaries_identical=False))
        regressions = compare_reports(current, BenchReport())
        assert any("differ from the dedup-off reference" in r for r in regressions)

    def test_missing_dedup_section_is_not_a_regression(self):
        assert compare_reports(BenchReport(), BenchReport(dedup=_dedup_section())) == []


class TestDedupBenchRun:
    def test_smoke(self):
        dedup = run_dedup_bench(samples=1)
        assert dedup["models"] == ["VGG11", "VGG16"]
        assert dedup["target"] == "VGG16"
        assert dedup["baseline_synth_map_seconds"] > 0
        assert dedup["warm_synth_map_seconds"] > 0
        assert dedup["warm_dedup_hits"] > 0
        assert dedup["warm_hit_rate"] > 0.5
        assert dedup["summaries_identical"] is True
        fuzz = dedup["fuzz"]
        assert fuzz["repeat"] >= 2
        # even the cold store serves the repeated blocks within one model
        assert fuzz["cold_dedup_hits"] > 0
        assert fuzz["warm_hit_rate"] == 1.0

    def test_needs_two_models(self):
        with pytest.raises(InvalidRequestError):
            run_dedup_bench(models=["VGG16"], samples=1)


class TestReportMerge:
    def test_dedup_run_preserves_other_sections(self, tmp_path, capsys):
        output = tmp_path / "BENCH.json"
        from repro.bench import BenchEntry

        existing = BenchReport(created_at=1.0, serve={"speedup": 5.0})
        existing.entries.append(
            BenchEntry(model="M", duplication_degree=1, channel_width=16, seed=0)
        )
        existing.save(str(output))
        args = build_parser().parse_args(
            ["--dedup", "--dedup-samples", "1", "--output", str(output)]
        )
        assert run_from_args(args) == 0
        merged = BenchReport.load(str(output))
        assert merged.dedup is not None
        assert [e.model for e in merged.entries] == ["M"]  # carried over
        assert merged.serve == {"speedup": 5.0}  # carried over

    def test_serve_and_dedup_are_mutually_exclusive(self, capsys):
        args = build_parser().parse_args(["--serve", "--dedup"])
        assert run_from_args(args) == 2
