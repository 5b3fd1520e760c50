"""Campaign-driver tests, including the injected-determinism-bug
acceptance check: the oracle catches a rigged compiler and the shrinker
reduces the reproducer to a handful of layers."""

import json

from repro.fuzz import campaign as campaign_module
from repro.fuzz import default_campaign_seed, generate_spec, run_campaign
from repro.fuzz import oracle as oracle_module


class TestDefaultSeed:
    def test_ci_profile_pins_zero(self, monkeypatch):
        monkeypatch.setenv("HYPOTHESIS_PROFILE", "ci")
        assert default_campaign_seed() == 0
        monkeypatch.delenv("HYPOTHESIS_PROFILE")
        assert default_campaign_seed() == 0  # ci is the default profile

    def test_dev_profile_draws_fresh(self, monkeypatch):
        monkeypatch.setenv("HYPOTHESIS_PROFILE", "dev")
        seed = default_campaign_seed()
        assert isinstance(seed, int) and 0 <= seed < 2**32

    def test_conftest_published_the_profile(self):
        # tests/conftest.py writes the resolved profile back to the
        # environment so campaigns and hypothesis agree on derandomization
        import os

        assert os.environ.get("HYPOTHESIS_PROFILE") in ("ci", "dev")


class TestCampaign:
    def test_clean_campaign_reports_ok(self):
        messages = []
        report = run_campaign(models=3, seed=0, log=messages.append)
        assert report.ok
        assert report.seed == 0
        assert len(report.specs) == 3
        assert report.compiles > 0
        assert report.findings == []
        assert any("seed=0" in m for m in messages)
        # the report is plain JSON data
        assert json.loads(json.dumps(report.to_dict()))["ok"] is True

    def test_campaign_is_reproducible(self):
        first = run_campaign(models=4, seed=11)
        second = run_campaign(models=4, seed=11)
        assert first.specs == second.specs
        assert first.compiles == second.compiles

    def test_injected_bug_is_caught_and_shrunk_small(self, monkeypatch):
        """Acceptance: a rigged summary (latency perturbed on every other
        compile of concat-bearing graphs) is flagged by the oracle and
        delta-debugged to a reproducer of at most 5 layers."""
        real = oracle_module.ResultSummary
        calls = {"n": 0}

        class RiggedSummary:
            @staticmethod
            def from_result(result, config=None):
                summary = real.from_result(result, config)
                has_concat = any(
                    node.name.startswith("concat") for node in result.graph.nodes()
                )
                if has_concat and summary.performance:
                    calls["n"] += 1
                    if calls["n"] % 2 == 0:
                        summary.performance["latency_us"] += 0.125
                return summary

        monkeypatch.setattr(oracle_module, "ResultSummary", RiggedSummary)
        # seed-0 index 8 is the first concat-bearing spec; indices 0-7
        # stay clean, proving the oracle does not cry wolf
        report = run_campaign(models=9, seed=0, shrink_failures=True)
        assert not report.ok
        assert len(report.findings) == 1
        failure = report.findings[0]
        assert failure.index == 8
        assert any(f["kind"] == "determinism" for f in failure.findings)
        assert failure.shrunk is not None
        shrunk_spec = failure.shrunk.spec
        assert len(shrunk_spec.layers) <= 5
        # the minimal reproducer still carries the triggering construct
        assert any(layer.kind == "concat" for layer in shrunk_spec.layers)
        assert len(shrunk_spec.layers) <= len(failure.spec.layers)
        # the report serializes, reproducer included
        data = json.loads(json.dumps(report.to_dict()))
        assert data["findings"][0]["shrunk"]["spec_id"] == shrunk_spec.spec_id()

    def test_groups_of_maps_config_names(self):
        spec = generate_spec(0, 0, size_class="small")
        check = oracle_module.SpecCheck(spec=spec)
        for config, expected in (
            ("repeat", ("repeat",)),
            ("pnr-repeat", ("pnr",)),
            ("pnr-shared", ("pnr",)),
            ("chips1-a", ("chips",)),
            ("auto-b", ("chips",)),
        ):
            check.findings = [
                oracle_module.Finding(spec=spec, config=config, kind="determinism",
                                      detail="x")
            ]
            assert campaign_module._groups_of(check) == expected
