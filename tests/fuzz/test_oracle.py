"""Tests of the differential oracle: the lattice finds nothing on the
honest compiler and everything on a rigged one."""

import pytest

from repro.core.shared_cache import SharedStageCache
from repro.errors import FPSAError
from repro.fuzz import check_spec, compile_spec, generate_spec
from repro.fuzz import oracle as oracle_module
from repro.fuzz.oracle import CONFIG_GROUPS, strip_seconds


class TestStripSeconds:
    def test_removes_wall_clock_keys_per_section(self):
        summary = {
            "pnr": {"place_seconds": 0.5, "route_seconds": 0.1, "cost": 42},
            "performance": {"latency_us": 3.0},
            "model": "m",
        }
        stripped = strip_seconds(summary)
        assert stripped == {
            "pnr": {"cost": 42},
            "performance": {"latency_us": 3.0},
            "model": "m",
        }
        # input is untouched
        assert "place_seconds" in summary["pnr"]

    def test_none_passes_through(self):
        assert strip_seconds(None) is None


class TestCompileSpec:
    def test_ok_outcome_carries_a_stripped_summary(self):
        spec = generate_spec(0, 0, size_class="small")
        outcome = compile_spec(spec, config_name="base")
        assert outcome.ok
        assert outcome.error is None
        for section in outcome.summary.values():
            if isinstance(section, dict):
                assert not any(k.endswith("_seconds") for k in section)

    def test_capacity_error_becomes_a_typed_outcome(self):
        spec = generate_spec(0, 0, size_class="over")
        outcome = compile_spec(spec, config_name="chips1", num_chips=1)
        assert not outcome.ok
        assert outcome.error["code"] == "capacity_error"
        # ... while auto-chips shards the same spec successfully
        sharded = compile_spec(spec, config_name="auto", num_chips="auto")
        assert sharded.ok


class TestCheckSpec:
    def test_small_spec_passes_the_full_lattice(self):
        check = check_spec(generate_spec(0, 0, size_class="small"))
        assert check.ok
        assert check.compiles == len(check.configs)
        # every group ran: repeat/warm/pnr/chips all present
        assert {"base", "repeat", "warm", "pnr-base", "pnr-shared",
                "chips1-a", "auto-a"} <= set(check.configs)
        assert len(check.configs) == 10
        assert not any(c.startswith("dedup") for c in check.configs)

    def test_pnr_shared_row_reads_the_routing_back_from_the_tier(self, monkeypatch):
        loaded = []
        real_get = SharedStageCache.get

        def get(tier, key):
            entry = real_get(tier, key)
            if entry is not None:
                loaded.append(sorted(entry))
            return entry

        monkeypatch.setattr(SharedStageCache, "get", get)
        check = check_spec(generate_spec(0, 0, size_class="small"), subset=("pnr",))
        assert check.ok
        assert check.configs == ["base", "pnr-base", "pnr-repeat", "pnr-shared"]
        assert loaded == [["pnr"]]

    def test_over_capacity_spec_skips_pnr_but_checks_chips(self):
        check = check_spec(generate_spec(0, 0, size_class="over"))
        assert check.ok
        assert not any(c.startswith("pnr") for c in check.configs)
        assert "auto-a" in check.configs

    def test_subset_restricts_the_lattice(self):
        check = check_spec(
            generate_spec(0, 0, size_class="small"), subset=("repeat",)
        )
        assert check.ok
        assert check.configs == ["base", "repeat"]

    def test_unknown_subset_rejected(self):
        with pytest.raises(FPSAError):
            check_spec(generate_spec(0, 0), subset=("repeat", "quantum"))
        with pytest.raises(FPSAError):
            check_spec(generate_spec(0, 0), subset=("dedup",))

    def test_groups_cover_every_config_name(self):
        assert set(CONFIG_GROUPS) == {"repeat", "warm", "pnr", "chips"}


class TestInjectedBug:
    def test_rigged_summary_is_caught_as_determinism_finding(self, monkeypatch):
        real = oracle_module.ResultSummary
        calls = {"n": 0}

        class RiggedSummary:
            @staticmethod
            def from_result(result, config=None):
                summary = real.from_result(result, config)
                calls["n"] += 1
                if calls["n"] % 2 == 0 and summary.performance:
                    summary.performance["latency_us"] += 1.0
                return summary

        monkeypatch.setattr(oracle_module, "ResultSummary", RiggedSummary)
        spec = generate_spec(0, 0, size_class="small")
        check = check_spec(spec, subset=("repeat",))
        assert not check.ok
        finding = check.findings[0]
        assert finding.kind == "determinism"
        assert "performance" in finding.detail
        assert finding.to_dict()["spec_id"] == spec.spec_id()

    def test_rigged_error_is_caught_as_error_divergence(self, monkeypatch):
        calls = {"n": 0}
        real_build = oracle_module.build_graph

        def flaky_build(spec):
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise FPSAError("cosmic ray")
            return real_build(spec)

        monkeypatch.setattr(oracle_module, "build_graph", flaky_build)
        check = check_spec(generate_spec(0, 0, size_class="small"),
                           subset=("repeat",))
        assert not check.ok
        assert check.findings[0].kind == "error-divergence"


class TestLatticeCoversTheExecutionKnobs:
    def test_every_execution_knob_is_fuzzed_or_excused(self, monkeypatch):
        from repro.core.compiler import FPSACompiler
        from repro.core.pipeline import KNOBS

        seen: dict[str, set] = {}
        real_compile = FPSACompiler.compile

        def spy(self, graph, **kwargs):
            for name, value in kwargs.items():
                seen.setdefault(name, set()).add(value)
            return real_compile(self, graph, **kwargs)

        monkeypatch.setattr(FPSACompiler, "compile", spy)
        assert check_spec(generate_spec(0, 0, size_class="small")).ok

        execution = {f.name: f.default for f in KNOBS if f.metadata["role"] == "execution"}
        fuzzed = {name for name, default in execution.items() if seen.get(name, set()) - {default}}
        # today: only verify (on in every lattice point); the rest are excused
        assert set(oracle_module._UNFUZZED) == set(execution) - fuzzed
        assert {"dedup", "pnr_jobs"} <= set(oracle_module._UNFUZZED)
        assert all(oracle_module._UNFUZZED.values())
