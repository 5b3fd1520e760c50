"""Bench reports written with the retired P&R engine-ratio fields still load."""

from __future__ import annotations

from repro.bench import BenchEntry, BenchReport, compare_reports


class TestReportCompatibility:
    def test_pre_engine_payload_parses(self):
        # a report written before ``pnr_jobs`` existed lacks the field; it
        # must load with the None default
        old = {
            "model": "LeNet",
            "duplication_degree": 1,
            "channel_width": 24,
            "seed": 0,
            "stage_seconds": {"pnr": 1.0},
            "quality": {"total_wirelength": 90.0},
        }
        entry = BenchEntry.from_dict(old)
        assert entry.pnr_jobs is None

    def test_engine_reference_keys_are_ignored(self):
        # reports written while the serial reference engine existed carry
        # its two timing keys: they must load, and a 1.0x "speedup" in them
        # must not trip --check-regression now that the floor is gone
        entry = BenchEntry(
            model="M", duplication_degree=1, channel_width=16, seed=0
        ).to_dict()
        entry["serial_place_route_seconds"] = 2.0
        entry["parallel_place_route_seconds"] = 2.0
        payload = BenchReport().to_dict()
        payload["entries"] = [entry]
        report = BenchReport.from_dict(payload)
        assert "serial_place_route_seconds" not in report.entries[0].to_dict()
        assert compare_reports(report, report) == []

    def test_dedup_section_is_ignored(self):
        # reports written while ``bench --dedup`` existed carry its section:
        # they must load, and a hit rate and a bit-identity flag that used
        # to fail --check-regression must raise no finding
        payload = BenchReport(serve={"speedup": 5.0}).to_dict()
        payload["dedup"] = {
            "speedup": 0.79,
            "warm_hit_rate": 0.0,
            "summaries_identical": False,
        }
        report = BenchReport.from_dict(payload)
        assert report.serve == {"speedup": 5.0}
        assert "dedup" not in report.to_dict()
        assert compare_reports(report, BenchReport.from_dict(payload)) == []

    def test_pnr_jobs_round_trips_through_report(self):
        entry = BenchEntry(
            model="M", duplication_degree=1, channel_width=16, seed=0, pnr_jobs=4
        )
        report = BenchReport.from_dict(BenchReport(entries=[entry]).to_dict())
        assert report.entries[0].pnr_jobs == 4
