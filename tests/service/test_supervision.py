"""Fault tolerance of the serving runtime: worker supervision, bounded
deterministic retries, per-job deadlines and admission control."""

from __future__ import annotations

from concurrent.futures import Future, ThreadPoolExecutor

import pytest

from repro.errors import (
    DeadlineExceededError,
    OverloadedError,
    error_from_payload,
)
from repro.faults import (
    FAULT_PLAN_ENV,
    SITE_WORKER_COMPILE,
    FaultPlan,
    FaultSpec,
    clear_installed_plan,
)
from repro.fuzz.oracle import strip_seconds
from repro.service import CompileRequest, JobManager, PoolSupervisor


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    clear_installed_plan()
    yield
    clear_installed_plan()


class _ManualExecutor:
    """An executor whose futures the test completes by hand (the pattern
    of ``test_runtime.py``)."""

    def __init__(self):
        self.submitted = []

    def submit(self, fn, *args, **kwargs):
        future = Future()
        future.set_running_or_notify_cancel()
        self.submitted.append((fn, args, future))
        return future

    def complete_all(self):
        for fn, args, future in self.submitted:
            if not future.done():
                future.set_result(fn(*args))

    def shutdown(self, wait=True):
        pass


def crash_plan(**match) -> str:
    return FaultPlan(
        faults=(
            FaultSpec(site=SITE_WORKER_COMPILE, kind="crash", match=match),
        )
    ).to_json()


class TestPoolSupervisor:
    def test_breakage_reports_coalesce_on_generation(self):
        rebuilds = []
        supervisor = PoolSupervisor(lambda: rebuilds.append(1))
        assert supervisor.generation == 0
        assert supervisor.note_breakage(0) == 1
        assert len(rebuilds) == 1
        # a second report of the same (already healed) generation is a
        # stale observation: no second rebuild
        assert supervisor.note_breakage(0) == 1
        assert len(rebuilds) == 1
        assert supervisor.note_breakage(1) == 2
        assert len(rebuilds) == 2
        health = supervisor.health
        assert health.broken_pool_events == 2
        assert health.respawns == 2
        assert health.total_recovery_seconds >= 0.0
        supervisor.note_displaced()
        supervisor.note_displaced(2)
        assert health.jobs_displaced == 3
        # chaos.py reads pool_health.* by these names, in this order
        assert list(health.to_dict()) == [
            "broken_pool_events",
            "respawns",
            "jobs_displaced",
            "last_recovery_seconds",
            "total_recovery_seconds",
        ]
        assert health.to_dict()["jobs_displaced"] == 3


class TestCrashRecovery:
    def test_crashed_worker_is_respawned_and_the_job_retried(self):
        request = CompileRequest(
            model="MLP-500-100",
            seed=0,
            max_retries=2,
            fault_plan=crash_plan(model="MLP-500-100", attempt=0),
        )
        with JobManager(max_workers=2) as reference_manager:
            reference = reference_manager.result(
                reference_manager.submit(CompileRequest(model="MLP-500-100", seed=0))
            )
        with JobManager(max_workers=2) as manager:
            response = manager.result(manager.submit(request))
            assert response.ok
            assert manager.stats.retried >= 1
            health = manager.supervisor.health
            assert health.broken_pool_events >= 1
            assert health.respawns >= 1
            assert health.jobs_displaced >= 1
        # the retried response is bit-identical (seconds stripped) to a
        # fault-free compile of the same seed
        assert strip_seconds(response.summary.to_dict()) == strip_seconds(
            reference.summary.to_dict()
        )

    def test_coalesced_followers_survive_a_primary_crash(self):
        request = CompileRequest(
            model="MLP-500-100",
            seed=0,
            max_retries=2,
            fault_plan=crash_plan(model="MLP-500-100", attempt=0),
        )
        with JobManager(max_workers=2, coalesce=True) as manager:
            job_ids = manager.submit_batch([request] * 3)
            responses = [manager.result(job_id) for job_id in job_ids]
        assert all(response.ok for response in responses)
        # the three submissions shared one (crashed, then retried) compile
        assert manager.stats.coalesced == 2
        assert manager.stats.retried >= 1

    def test_exhausted_retries_fan_out_a_typed_worker_crash_error(self):
        # the crash matches every attempt, so the retry budget runs dry
        request = CompileRequest(
            model="MLP-500-100",
            max_retries=1,
            fault_plan=crash_plan(model="MLP-500-100"),
        )
        with JobManager(max_workers=1, coalesce=True) as manager:
            job_ids = manager.submit_batch([request] * 2)
            responses = [manager.result(job_id, timeout=120) for job_id in job_ids]
        for response in responses:
            assert not response.ok
            assert response.error.code == "worker_crash"
            assert response.error.retriable
        assert manager.stats.retried == 1

    def test_partitioned_compile_recovers_from_crash_and_hang(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site=SITE_WORKER_COMPILE,
                    kind="crash",
                    match={"num_chips": 2, "attempt": 0},
                ),
                FaultSpec(
                    site=SITE_WORKER_COMPILE,
                    kind="hang",
                    seconds=0.05,
                    match={"num_chips": 2, "attempt": 1},
                ),
            )
        ).to_json()
        reference_request = CompileRequest(
            model="MLP-500-100", seed=0, num_chips=2
        )
        with JobManager(max_workers=2) as manager:
            reference = manager.result(manager.submit(reference_request))
        assert reference.ok
        with JobManager(max_workers=2) as manager:
            response = manager.result(
                manager.submit(
                    CompileRequest(
                        model="MLP-500-100",
                        seed=0,
                        num_chips=2,
                        max_retries=3,
                        fault_plan=plan,
                    )
                )
            )
            assert manager.stats.retried >= 1
        assert response.ok
        assert strip_seconds(response.summary.to_dict()) == strip_seconds(
            reference.summary.to_dict()
        )


class TestRetryPolicy:
    def test_transient_io_fault_is_retried(self):
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site=SITE_WORKER_COMPILE,
                    kind="io_error",
                    match={"attempt": 0},
                ),
            )
        ).to_json()
        with ThreadPoolExecutor(max_workers=1) as pool, JobManager(pool=pool) as manager:
            response = manager.result(
                manager.submit(
                    CompileRequest(
                        model="MLP-500-100", max_retries=2, fault_plan=plan
                    )
                )
            )
        assert response.ok
        assert manager.stats.retried == 1

    def test_typed_compile_errors_are_never_retried(self):
        with ThreadPoolExecutor(max_workers=1) as pool, JobManager(pool=pool) as manager:
            response = manager.result(
                manager.submit(
                    CompileRequest(model="MLP-500-100", pe_budget=1, max_retries=3)
                )
            )
        assert not response.ok
        assert response.error.code == "capacity_error"
        assert not response.error.retriable
        assert manager.stats.retried == 0

    def test_backoff_is_deterministic_and_bounded(self):
        from repro.service.jobs import _Job

        request = CompileRequest(model="MLP-500-100", seed=5)
        with JobManager(pool=_ManualExecutor()) as manager:
            job = _Job("job-0001", request)
            first = manager._backoff_delay(job, 1)
            second = manager._backoff_delay(job, 2)
            # same (seed, fingerprint, attempt) -> same delay, replayable
            assert manager._backoff_delay(_Job("job-0002", request), 1) == first
            assert 0.0 <= first <= manager.retry_backoff_s
            assert 0.0 <= second <= 2 * manager.retry_backoff_s
            assert second <= manager.retry_backoff_cap_s
            # a different seed draws a different jitter
            other = _Job(
                "job-0003", CompileRequest(model="MLP-500-100", seed=6)
            )
            assert manager._backoff_delay(other, 1) != first

    def test_invalid_retry_and_queue_settings_rejected(self):
        from repro.errors import InvalidRequestError

        with pytest.raises(InvalidRequestError):
            JobManager(max_retries=-1)
        with pytest.raises(InvalidRequestError):
            JobManager(max_queue_depth=0)


class TestDeadlines:
    def test_result_timeout_is_a_typed_deadline_error(self):
        with ThreadPoolExecutor(max_workers=1) as pool, JobManager(
            pool=pool, cache=False
        ) as jm:
            first = jm.submit("GoogLeNet")
            second = jm.submit("MLP-500-100")
            with pytest.raises(DeadlineExceededError) as excinfo:
                jm.result(second, timeout=0)
            assert isinstance(excinfo.value, TimeoutError)
            assert excinfo.value.details["job_id"] == second
            assert jm.result(first).ok
            assert jm.result(second).ok

    def test_expired_deadline_publishes_a_typed_error(self):
        # the pool's futures complete only when the test says so: both jobs
        # stay in flight until the expiry has been observed, so the outcome
        # does not depend on how fast a compile or the deadline timer runs
        pool = _ManualExecutor()
        with JobManager(pool=pool, cache=False) as jm:
            blocker = jm.submit("LeNet")
            expired = jm.submit(
                CompileRequest(model="MLP-500-100", deadline_s=0.01)
            )
            response = jm.result(expired, timeout=60)
            assert not response.ok
            assert response.error.code == "deadline_exceeded"
            rebuilt = error_from_payload(response.error.to_dict())
            assert isinstance(rebuilt, DeadlineExceededError)
            assert isinstance(rebuilt, TimeoutError)
            pool.complete_all()  # the late MLP result is dropped
            assert jm.result(blocker).ok
            assert jm.stats.deadline_expired == 1


class TestAdmissionControl:
    # the blocker stays in flight until the test completes it by hand: a
    # real compile of a zoo model is a few milliseconds, about as long as
    # the submitting thread waits for the GIL, so racing one is a coin toss

    def test_overload_rejects_with_a_retriable_typed_error(self):
        pool = _ManualExecutor()
        with JobManager(pool=pool, cache=False, max_queue_depth=1) as jm:
            blocker = jm.submit("GoogLeNet")
            with pytest.raises(OverloadedError) as excinfo:
                jm.submit("AlexNet")
            assert excinfo.value.details["max_queue_depth"] == 1
            # the typed payload round-trips for wire-level clients
            from repro.service import ErrorPayload

            payload = ErrorPayload.from_exception(excinfo.value)
            assert payload.code == "overloaded"
            assert payload.retriable
            assert isinstance(
                error_from_payload(payload.to_dict()), OverloadedError
            )
            assert jm.stats.rejected == 1
            # an identical in-flight request coalesces instead: followers
            # occupy no worker, so the cap does not apply to them
            follower = jm.submit("GoogLeNet")
            assert jm.stats.coalesced == 1
            pool.complete_all()
            assert jm.result(blocker).ok
            assert jm.result(follower).ok
            # capacity freed: new submissions are admitted again
            admitted = jm.submit("MLP-500-100")
            pool.complete_all()
            assert jm.result(admitted).ok

    def test_rejected_submission_leaves_no_orphan_job(self):
        pool = _ManualExecutor()
        with JobManager(pool=pool, cache=False, max_queue_depth=1) as jm:
            blocker = jm.submit("GoogLeNet")
            with pytest.raises(OverloadedError):
                jm.submit("AlexNet")
            assert len(jm.jobs()) == 1
            pool.complete_all()
            assert jm.result(blocker).ok


class TestRuntimeSurface:
    def test_stats_and_health_exposed(self):
        from repro.service import ServingRuntime

        with ServingRuntime(max_workers=1, shared_cache_dir=False) as runtime:
            assert runtime.serve("MLP-500-100").ok
            stats = runtime.stats()
            assert stats["pool_health"] == runtime.health()
        # the benchmark reads "coalesced"; chaos.py reads "retried",
        # "displaced", "rejected", "deadline_expired" and "pool_health"
        assert list(stats) == [
            "submitted",
            "coalesced",
            "completed",
            "failed",
            "retried",
            "displaced",
            "rejected",
            "deadline_expired",
            "pool_health",
            "worker_pids",
            "shared_cache_dir",
        ]
        assert (stats["submitted"], stats["completed"], stats["failed"]) == (1, 1, 0)
        assert stats["shared_cache_dir"] is None

    def test_process_runtime_reports_pool_health(self):
        from repro.service import ServingRuntime

        with ServingRuntime(max_workers=1, shared_cache_dir=False) as runtime:
            assert runtime.serve("MLP-500-100").ok
            health = runtime.health()
        assert health is not None
        assert health["broken_pool_events"] == 0
        assert health["respawns"] == 0
