"""The deterministic fault-injection layer (:mod:`repro.faults`)."""

from __future__ import annotations

import os

import pytest

from repro.errors import InvalidRequestError, TransientIOError
from repro.faults import (
    FAULT_PLAN_ENV,
    SITE_WORKER_COMPILE,
    FaultInjector,
    FaultPlan,
    FaultSpec,
    active_injector,
    fire,
)


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    assert active_injector() is None  # read unset, it drops a memoized plan


def use_plan(monkeypatch, *specs: FaultSpec) -> None:
    monkeypatch.setenv(FAULT_PLAN_ENV, FaultPlan(faults=specs).to_json())


def io_spec(**overrides) -> FaultSpec:
    fields = dict(site=SITE_WORKER_COMPILE, kind="io_error")
    fields.update(overrides)
    return FaultSpec(**fields)


class TestSpecValidation:
    def test_round_trip(self):
        spec = FaultSpec(
            site=SITE_WORKER_COMPILE,
            kind="crash",
            match={"model": "LeNet", "attempt": 0},
            at=1,
            times=2,
            seconds=0.5,
        )
        assert FaultSpec.from_dict(spec.to_dict()) == spec

    def test_plan_json_round_trip(self):
        plan = FaultPlan(
            faults=(io_spec(), FaultSpec(site="s", kind="hang", seconds=0.2)),
            seed=7,
        )
        again = FaultPlan.from_json(plan.to_json())
        assert again == plan
        # sorted keys: the JSON is canonical, usable as a memo key
        assert plan.to_json() == again.to_json()

    @pytest.mark.parametrize(
        "overrides",
        [
            {"site": ""},
            {"kind": "explode"},
            {"at": -1},
            {"at": True},
            {"times": 0},
            {"seconds": -0.1},
        ],
    )
    def test_invalid_spec_rejected(self, overrides):
        with pytest.raises(InvalidRequestError):
            io_spec(**overrides)

    def test_unknown_fields_rejected(self):
        with pytest.raises(InvalidRequestError):
            FaultSpec.from_dict({"site": "s", "kind": "hang", "color": "red"})
        with pytest.raises(InvalidRequestError):
            FaultPlan.from_dict({"seed": 0, "faults": [], "extra": 1})

    def test_invalid_json_rejected(self):
        with pytest.raises(InvalidRequestError):
            FaultPlan.from_json("not json")


class TestInjector:
    def test_io_error_raises_transient_os_error(self):
        injector = FaultInjector(FaultPlan(faults=(io_spec(),)))
        with pytest.raises(TransientIOError) as excinfo:
            injector.fire(SITE_WORKER_COMPILE, model="LeNet")
        assert isinstance(excinfo.value, OSError)
        assert excinfo.value.details["site"] == SITE_WORKER_COMPILE
        assert injector.fired() == 1

    def test_match_is_subset_of_context(self):
        spec = io_spec(match={"model": "LeNet", "attempt": 0})
        injector = FaultInjector(FaultPlan(faults=(spec,)))
        # wrong model, wrong attempt, missing key: all pass through
        assert injector.fire(SITE_WORKER_COMPILE, model="MLP", attempt=0) is None
        assert injector.fire(SITE_WORKER_COMPILE, model="LeNet", attempt=1) is None
        assert injector.fire(SITE_WORKER_COMPILE, attempt=0) is None
        assert injector.fired() == 0
        with pytest.raises(TransientIOError):
            injector.fire(SITE_WORKER_COMPILE, model="LeNet", attempt=0)

    def test_at_skips_early_occurrences_and_times_bounds_firings(self):
        spec = io_spec(at=1, times=1)
        injector = FaultInjector(FaultPlan(faults=(spec,)))
        assert injector.fire(SITE_WORKER_COMPILE) is None  # occurrence 0
        with pytest.raises(TransientIOError):
            injector.fire(SITE_WORKER_COMPILE)  # occurrence 1: fires
        assert injector.fire(SITE_WORKER_COMPILE) is None  # exhausted
        assert injector.fired() == 1

    def test_a_plan_naming_corrupt_is_rejected(self, monkeypatch):
        # no site acts on a corrupt spec: it would count as fired while
        # injecting nothing
        plan = '{"faults": [{"site": "worker-compile", "kind": "corrupt"}]}'
        with pytest.raises(InvalidRequestError, match="fault kind"):
            FaultPlan.from_json(plan)
        monkeypatch.setenv(FAULT_PLAN_ENV, plan)
        with pytest.raises(InvalidRequestError, match="fault kind"):
            active_injector()

    def test_hang_sleeps_and_returns_none(self):
        spec = FaultSpec(site="s", kind="hang", seconds=0.0)
        injector = FaultInjector(FaultPlan(faults=(spec,)))
        assert injector.fire("s") is None
        assert injector.fired() == 1

    def test_first_matching_spec_wins(self):
        first = io_spec(site="s")
        other = FaultSpec(site="s", kind="hang", seconds=0.0)
        injector = FaultInjector(FaultPlan(faults=(first, other)))
        with pytest.raises(TransientIOError):
            injector.fire("s")
        # the io_error spec is exhausted; the hang fires next
        assert injector.fire("s") is None
        assert injector.counts() == [1, 1]


class TestActivation:
    def test_no_plan_means_no_op(self):
        assert active_injector() is None
        assert fire(SITE_WORKER_COMPILE, model="LeNet") is None

    def test_env_inline_json(self, monkeypatch):
        plan = FaultPlan(faults=(io_spec(),))
        monkeypatch.setenv(FAULT_PLAN_ENV, plan.to_json())
        injector = active_injector()
        assert injector is not None
        assert injector.plan == plan
        # unchanged value: memoized injector; changed value: rebuilt
        assert active_injector() is injector
        monkeypatch.setenv(
            FAULT_PLAN_ENV, FaultPlan(faults=(io_spec(at=5),)).to_json()
        )
        assert active_injector() is not injector

    def test_an_unchanged_env_value_keeps_counters(self, monkeypatch):
        use_plan(monkeypatch, io_spec(times=1))
        with pytest.raises(TransientIOError):
            fire(SITE_WORKER_COMPILE)
        assert fire(SITE_WORKER_COMPILE) is None  # the spec stays exhausted

    def test_env_file_path(self, tmp_path, monkeypatch):
        plan = FaultPlan(faults=(io_spec(),), seed=3)
        path = tmp_path / "plan.json"
        path.write_text(plan.to_json(), encoding="utf-8")
        monkeypatch.setenv(FAULT_PLAN_ENV, str(path))
        injector = active_injector()
        assert injector is not None and injector.plan == plan

    def test_unreadable_plan_file_is_a_typed_error(self):
        with pytest.raises(InvalidRequestError):
            FaultPlan.from_env_value(os.path.join("no", "such", "plan.json"))
