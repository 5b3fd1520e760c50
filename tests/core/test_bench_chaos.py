"""The fault-tolerance (chaos) section of the benchmark harness."""

from __future__ import annotations

import json

import pytest

import repro.bench as bench
from repro.bench import (
    BenchReport,
    _chaos_plan,
    build_parser,
    compare_reports,
    format_chaos_section,
    run_chaos_bench,
    run_from_args,
)
from repro.errors import InvalidRequestError
from repro.faults import KIND_CRASH, SITE_WORKER_COMPILE
from repro.service import CompileRequest


def _chaos_section(**overrides) -> dict:
    section = {
        "models": ["MLP-500-100", "LeNet"],
        "duplications": [1, 2],
        "copies": 2,
        "rounds": 2,
        "workers": 2,
        "seed": 0,
        "deadline_s": 120.0,
        "max_retries": 3,
        "fault_plan": {"seed": 0, "faults": []},
        "total_requests": 16,
        "ok_requests": 16,
        "availability": 1.0,
        "summaries_identical": True,
        "retried": 3,
        "displaced": 1,
        "rejected": 0,
        "deadline_expired": 0,
        "broken_pool_events": 2,
        "respawns": 2,
        "last_recovery_seconds": 0.001,
        "total_recovery_seconds": 0.002,
        "cache_write_errors": 2,
        "chaos_seconds": 4.2,
    }
    section.update(overrides)
    return section


class TestChaosSection:
    def test_report_roundtrip(self):
        report = BenchReport(created_at=1.0, chaos=_chaos_section())
        again = BenchReport.from_dict(json.loads(report.to_json()))
        assert again.chaos == report.chaos

    def test_reports_without_chaos_stay_compatible(self):
        report = BenchReport(created_at=1.0)
        data = report.to_dict()
        assert "chaos" not in data
        assert BenchReport.from_dict(data).chaos is None

    def test_format_is_human_readable(self):
        text = format_chaos_section(_chaos_section())
        assert "availability: 16/16 (100%)" in text
        assert "2 breakage(s)" in text
        assert "yes" in text


class TestChaosRegressions:
    def test_clean_pass(self):
        current = BenchReport(chaos=_chaos_section())
        assert compare_reports(current, BenchReport()) == []

    def test_availability_floor(self):
        current = BenchReport(
            chaos=_chaos_section(ok_requests=15, availability=15 / 16)
        )
        regressions = compare_reports(current, BenchReport())
        assert len(regressions) == 1
        assert "below the 100% floor" in regressions[0]
        assert (
            compare_reports(
                current, BenchReport(), chaos_min_availability=0.9
            )
            == []
        )

    def test_divergent_summaries_flagged(self):
        current = BenchReport(chaos=_chaos_section(summaries_identical=False))
        regressions = compare_reports(current, BenchReport())
        assert any("differ" in r for r in regressions)

    def test_unbroken_pool_means_nothing_was_exercised(self):
        current = BenchReport(
            chaos=_chaos_section(broken_pool_events=0, respawns=0)
        )
        regressions = compare_reports(current, BenchReport())
        assert any("never broke the worker pool" in r for r in regressions)

    def test_missing_chaos_section_is_not_a_regression(self):
        assert (
            compare_reports(BenchReport(), BenchReport(chaos=_chaos_section()))
            == []
        )


class TestChaosPlan:
    def test_same_seed_same_plan(self):
        requests = [
            CompileRequest(model=m, duplication_degree=d)
            for m in ("MLP-500-100", "LeNet")
            for d in (1, 2)
        ]
        assert _chaos_plan(0, requests) == _chaos_plan(0, requests)
        assert _chaos_plan(0, requests).to_json() == _chaos_plan(
            0, requests
        ).to_json()

    def test_plan_kills_workers_but_stays_self_limiting(self):
        requests = [CompileRequest(model="MLP-500-100")]
        plan = _chaos_plan(3, requests)
        crashes = [
            spec
            for spec in plan.faults
            if spec.site == SITE_WORKER_COMPILE and spec.kind == KIND_CRASH
        ]
        assert len(crashes) >= 2
        # every worker fault is pinned to attempt 0: the supervised retry
        # of the same request must run clean
        for spec in plan.faults:
            if spec.site == SITE_WORKER_COMPILE:
                assert spec.match["attempt"] == 0


class TestChaosBenchRun:
    def test_smoke(self):
        chaos = run_chaos_bench(
            models=["MLP-500-100"],
            duplications=(1,),
            copies=2,
            rounds=2,
            workers=2,
        )
        assert chaos["total_requests"] == 4
        assert chaos["ok_requests"] == 4
        assert chaos["availability"] == 1.0
        assert chaos["summaries_identical"] is True
        assert chaos["broken_pool_events"] >= 1
        assert chaos["respawns"] >= 1
        assert chaos["retried"] >= 1
        assert chaos["chaos_seconds"] > 0

    def test_rejects_degenerate_workloads(self):
        with pytest.raises(InvalidRequestError):
            run_chaos_bench(copies=0)
        with pytest.raises(InvalidRequestError):
            run_chaos_bench(rounds=0)


class TestReportMerge:
    def test_chaos_run_preserves_other_sections(self, tmp_path, capsys,
                                                monkeypatch):
        output = tmp_path / "BENCH.json"
        from repro.bench import BenchEntry

        existing = BenchReport(created_at=1.0, serve={"speedup": 5.0})
        existing.entries.append(
            BenchEntry(model="M", duplication_degree=1, channel_width=16, seed=0)
        )
        existing.save(str(output))
        monkeypatch.setattr(
            bench, "run_chaos_bench", lambda **kwargs: _chaos_section()
        )
        args = build_parser().parse_args(["--chaos", "--output", str(output)])
        assert run_from_args(args) == 0
        merged = BenchReport.load(str(output))
        assert merged.chaos == _chaos_section()
        assert [e.model for e in merged.entries] == ["M"]  # carried over
        assert merged.serve == {"speedup": 5.0}  # carried over

    def test_chaos_gate_uses_the_fresh_section(self, tmp_path, capsys,
                                               monkeypatch):
        # --check-regression on a chaos run must gate on the section just
        # measured, not compare the carried-over baseline against itself
        output = tmp_path / "BENCH.json"
        BenchReport(created_at=1.0).save(str(output))
        monkeypatch.setattr(
            bench,
            "run_chaos_bench",
            lambda **kwargs: _chaos_section(ok_requests=0, availability=0.0),
        )
        args = build_parser().parse_args(
            [
                "--chaos",
                "--check-regression",
                "--baseline",
                str(output),
                "--output",
                str(output),
            ]
        )
        assert run_from_args(args) == 1
        assert "below the 100% floor" in capsys.readouterr().err

    def test_chaos_is_mutually_exclusive_with_other_modes(self, capsys):
        args = build_parser().parse_args(["--serve", "--chaos"])
        assert run_from_args(args) == 2
        with pytest.raises(SystemExit):  # not a mode
            build_parser().parse_args(["--dedup"])
