"""The chaos gate: the seeded fault plan, the run, the four floors."""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.chaos as chaos_module
import repro.core.shared_cache as shared_cache_module
from repro.chaos import (
    DEFAULT_CHAOS_MODELS,
    _chaos_plan,
    _chaos_workload,
    format_chaos_section,
    gate,
    run_chaos,
)
from repro.cli import main
from repro.core.cache import StageCache
from repro.errors import InvalidRequestError, TransientIOError
from repro.faults import (
    FAULT_PLAN_ENV,
    KIND_CORRUPT,
    KIND_CRASH,
    KIND_IO_ERROR,
    SITE_SHARED_CACHE_PUT,
    SITE_WORKER_COMPILE,
    FaultPlan,
)
from repro.service import CompileRequest, serve_request


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
        "retried": 4,
        "displaced": 0,
        "rejected": 0,
        "deadline_expired": 0,
        "broken_pool_events": 2,
        "respawns": 2,
        "last_recovery_seconds": 0.001,
        "total_recovery_seconds": 0.002,
        "cache_write_errors": 2,
        "fault_firings": [],
        "chaos_seconds": 4.2,
    }
    section.update(overrides)
    return section


class TestChaosSection:
    def test_format_is_human_readable(self):
        text = format_chaos_section(_chaos_section())
        assert "availability: 16/16 (100%)" in text
        assert "2 breakage(s)" in text
        assert "yes" in text


class TestChaosRegressions:
    def test_clean_pass(self):
        assert gate(_chaos_section()) == []

    def test_availability_floor(self):
        findings = gate(_chaos_section(ok_requests=15, availability=15 / 16))
        assert len(findings) == 1
        assert "below the 100% floor" in findings[0]

    def test_divergent_summaries_flagged(self):
        findings = gate(_chaos_section(summaries_identical=False))
        assert any("differ" in f for f in findings)

    def test_unbroken_pool_means_nothing_was_exercised(self):
        findings = gate(_chaos_section(broken_pool_events=0, respawns=0))
        assert any("never broke the worker pool" in f for f in findings)

    def test_a_fault_that_never_fired_is_flagged(self):
        plan = {"seed": 0, "faults": [
            {"site": SITE_WORKER_COMPILE, "kind": KIND_CRASH},
            {"site": SITE_SHARED_CACHE_PUT, "kind": KIND_CORRUPT, "at": 2},
        ]}
        assert gate(_chaos_section(fault_plan=plan, fault_firings=[2, 1])) == []
        findings = gate(_chaos_section(fault_plan=plan, fault_firings=[2, 0]))
        assert findings == [
            "fault 1 of the plan (corrupt at shared-cache-put, at=2) never fired "
            "— the run did not exercise it"
        ]
        # a section that reports no firings proves none
        assert len(gate(_chaos_section(fault_plan=plan, fault_firings=[]))) == 2


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

    def test_every_shared_tier_fault_fires(self, tmp_path, monkeypatch):
        """The plan's shared-tier specs, run over the chaos workload's
        compile sequence in one worker, each fire: a spec aimed past the
        puts or gets a worker makes would leave the gate passing without
        the fault it names."""
        copies = 2
        unique, batches = _chaos_workload(DEFAULT_CHAOS_MODELS, (1, 2), copies, 2, 0)
        specs = tuple(
            spec
            for spec in _chaos_plan(0, unique).faults
            if spec.site != SITE_WORKER_COMPILE
        )
        assert len(specs) == 3
        fired: list[tuple[str, str]] = []
        real_fire = shared_cache_module.fire

        def recording_fire(site, **context):
            try:
                spec = real_fire(site, **context)
            except TransientIOError:
                fired.append((site, KIND_IO_ERROR))
                raise
            if spec is not None:
                fired.append((site, spec.kind))
            return spec

        monkeypatch.setattr(shared_cache_module, "fire", recording_fire)
        monkeypatch.setenv(FAULT_PLAN_ENV, FaultPlan(faults=specs).to_json())
        cache = StageCache(shared=shared_cache_module.SharedStageCache(str(tmp_path)))
        for batch in batches:
            # copies of one request coalesce into one compile
            for request in batch[::copies]:
                assert serve_request(request, cache=cache).response.ok
        assert sorted(fired) == sorted((spec.site, spec.kind) for spec in specs)


class TestChaosBenchRun:
    def test_smoke(self):
        chaos = run_chaos(
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
        # round 1 has its own fingerprint: it reaches a worker, at attempt 0
        assert chaos["broken_pool_events"] >= 2
        assert chaos["respawns"] >= 1
        assert chaos["retried"] >= 1
        assert chaos["chaos_seconds"] > 0

    def test_every_fault_of_the_committed_plan_fires(self):
        section = run_chaos(seed=0)
        assert gate(section) == []
        assert section["displaced"] == 0
        assert section["retried"] >= section["broken_pool_events"] >= 2
        assert len(section["fault_firings"]) == len(section["fault_plan"]["faults"])

    def test_a_misaimed_fault_fails_the_gate(self, monkeypatch):
        """The corrupt write once aimed at ``at=2``: past the puts a worker
        of the chaos workload makes, so it never fired and the other floors
        passed without it."""
        committed = _chaos_plan

        def misaimed(seed, requests):
            plan = committed(seed, requests)
            return dataclasses.replace(plan, faults=tuple(
                dataclasses.replace(spec, at=2) if spec.kind == KIND_CORRUPT else spec
                for spec in plan.faults
            ))

        monkeypatch.setattr(chaos_module, "_chaos_plan", misaimed)
        section = run_chaos(seed=0)
        assert section["availability"] == 1.0 and section["summaries_identical"]
        findings = gate(section)
        assert len(findings) == 1
        assert "corrupt at shared-cache-put, at=2) never fired" in findings[0]

    def test_rejects_degenerate_workloads(self):
        with pytest.raises(InvalidRequestError):
            run_chaos(copies=0)
        with pytest.raises(InvalidRequestError):
            run_chaos(rounds=0)


@pytest.mark.parametrize(
    "overrides, argv, code",
    [
        ({"ok_requests": 15, "availability": 15 / 16}, ["--seed", "0"], 1),
        ({}, ["--seed", "0"], 0),
        ({}, ["--seed", "0", "--json"], 0),
    ],
    ids=["lost-a-request", "clean", "clean-json"],
)
def test_every_invocation_is_gated(tmp_path, monkeypatch, capsys, overrides, argv, code):
    monkeypatch.chdir(tmp_path)  # empty: no file whose absence could skip the gate
    section = _chaos_section(**overrides)
    monkeypatch.setattr(chaos_module, "run_chaos", lambda **kwargs: section)
    assert main(["chaos", *argv]) == code
    captured = capsys.readouterr()
    assert ("below the 100% floor" in captured.err) == bool(code)
    if "--json" in argv:
        assert json.loads(captured.out) == section
    else:
        assert "availability: " in captured.out
