"""The chaos gate: the seeded fault plan, the run, the four floors."""

from __future__ import annotations

import dataclasses
import json

import pytest

import repro.chaos as chaos_module
from repro.chaos import _chaos_plan, format_chaos_section, gate, run_chaos
from repro.cli import main
from repro.errors import InvalidRequestError
from repro.faults import KIND_CRASH, KIND_HANG, SITE_WORKER_COMPILE
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
        "retried": 4,
        "displaced": 0,
        "rejected": 0,
        "deadline_expired": 0,
        "broken_pool_events": 2,
        "respawns": 2,
        "last_recovery_seconds": 0.001,
        "total_recovery_seconds": 0.002,
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
            {"site": SITE_WORKER_COMPILE, "kind": KIND_HANG, "at": 2},
        ]}
        assert gate(_chaos_section(fault_plan=plan, fault_firings=[2, 1])) == []
        findings = gate(_chaos_section(fault_plan=plan, fault_firings=[2, 0]))
        assert findings == [
            "fault 1 of the plan (hang at worker-compile, at=2) never fired "
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
        assert _chaos_plan(0, requests, 2) == _chaos_plan(0, requests, 2)
        assert _chaos_plan(0, requests, 2).to_json() == _chaos_plan(
            0, requests, 2
        ).to_json()

    def test_plan_kills_workers_but_stays_self_limiting(self):
        requests = [CompileRequest(model="MLP-500-100")]
        plan = _chaos_plan(3, requests, 2)
        crashes = [
            spec
            for spec in plan.faults
            if spec.site == SITE_WORKER_COMPILE and spec.kind == KIND_CRASH
        ]
        assert len(crashes) >= 2
        # every fault is a worker fault pinned to attempt 0: the
        # supervised retry of the same request must run clean
        for spec in plan.faults:
            assert spec.site == SITE_WORKER_COMPILE
            assert spec.match["attempt"] == 0


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
        # each victim meets attempt 0 once a round, on whichever worker:
        # the firings replay exactly, not only "at least once"
        assert section["fault_firings"] == [2, 2, 2, 2]

    def test_a_misaimed_fault_fails_the_gate(self, monkeypatch):
        """The hang aimed at a duplication the workload never compiles: it
        never fires, and the other floors pass without it."""
        committed = _chaos_plan

        def misaimed(seed, requests, rounds):
            plan = committed(seed, requests, rounds)
            return dataclasses.replace(plan, faults=tuple(
                dataclasses.replace(spec, match={**spec.match, "duplication_degree": 3})
                if spec.kind == KIND_HANG else spec
                for spec in plan.faults
            ))

        monkeypatch.setattr(chaos_module, "_chaos_plan", misaimed)
        section = run_chaos(seed=0)
        assert section["availability"] == 1.0 and section["summaries_identical"]
        findings = gate(section)
        assert len(findings) == 1
        assert "fault 3 of the plan (hang at worker-compile, at=0) never fired" in findings[0]

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
