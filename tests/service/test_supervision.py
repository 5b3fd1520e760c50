"""Fault tolerance of the serving runtime: a pool that replaces a dead
worker without displacing any other job, bounded deterministic retries,
per-job deadlines and admission control."""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.core.api import WorkerPool
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
    active_injector,
)
from repro.fuzz.oracle import strip_seconds
from repro.service import CompileRequest, JobManager, JobState
from repro.service import jobs as jobs_module


@pytest.fixture(autouse=True)
def _clean_fault_state(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    assert active_injector() is None  # read unset, it drops a memoized plan


def crash_plan(**match) -> str:
    return FaultPlan(
        faults=(
            FaultSpec(site=SITE_WORKER_COMPILE, kind="crash", match=match),
        )
    ).to_json()


def _until(condition, seconds: float = 30.0) -> None:
    deadline = time.monotonic() + seconds
    while not condition():
        assert time.monotonic() < deadline, "timed out"
        time.sleep(0.01)


class TestPoolHealth:
    def test_a_dead_worker_is_replaced_and_counted(self):
        with WorkerPool(2) as pool:
            victim, survivor = pool.worker_pids()
            os.kill(victim, signal.SIGKILL)
            _until(lambda: pool.health.respawns == 1)
            pids = pool.worker_pids()
            assert victim not in pids and survivor in pids and len(pids) == 2
            assert {pool.submit(os.getpid).result() for _ in range(4)} <= set(pids)
            health = pool.health
            assert health.broken_pool_events == 1
            assert health.total_recovery_seconds >= health.last_recovery_seconds > 0.0
            # chaos.py reads pool_health.* by these names, in this order
            assert list(health.to_dict()) == [
                "broken_pool_events",
                "respawns",
                "last_recovery_seconds",
                "total_recovery_seconds",
            ]

    def test_a_pool_shut_down_stays_shut(self):
        pool = WorkerPool(1)
        pool.shutdown()
        assert pool.worker_pids() == []
        with pytest.raises(RuntimeError, match="shutdown"):
            pool.submit(abs, -1)

    def test_one_workers_death_displaces_no_other_job(self, monkeypatch):
        # A hangs on its first attempt, B for a second: both are on a
        # worker when A's is killed
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site=SITE_WORKER_COMPILE, kind="hang", seconds=60.0,
                    match={"model": "LeNet", "attempt": 0},
                ),
                FaultSpec(
                    site=SITE_WORKER_COMPILE, kind="hang", seconds=1.0,
                    match={"model": "MLP-500-100", "attempt": 0},
                ),
            )
        ).to_json()
        monkeypatch.setenv(FAULT_PLAN_ENV, plan)
        with JobManager(max_workers=2) as manager:
            pool = manager.pool
            # the next job goes to the idle worker that answered last
            victim = pool.submit(os.getpid).result()
            assert victim in pool.worker_pids()
            a = manager.submit(CompileRequest(model="LeNet", max_retries=1))
            b = manager.submit(CompileRequest(model="MLP-500-100"))
            assert manager.status(a).state == manager.status(b).state == JobState.RUNNING
            time.sleep(0.2)  # both are in their hang
            os.kill(victim, signal.SIGKILL)
            first, second = manager.result(a, timeout=120), manager.result(b, timeout=120)
            assert second.ok and manager._get(b).attempts == 0
            assert first.ok and manager._get(a).attempts == 1
            assert (manager.stats.retried, manager.stats.displaced) == (1, 0)
            assert (pool.health.broken_pool_events, pool.health.respawns) == (1, 1)
            assert victim not in pool.worker_pids()


class TestCrashRecovery:
    def test_crashed_worker_is_respawned_and_the_job_retried(self, monkeypatch):
        request = CompileRequest(model="MLP-500-100", seed=0, max_retries=2)
        with JobManager(max_workers=2) as reference_manager:
            reference = reference_manager.result(
                reference_manager.submit(CompileRequest(model="MLP-500-100", seed=0))
            )
        # set before the pool forks: every worker and respawn inherits it
        monkeypatch.setenv(FAULT_PLAN_ENV, crash_plan(model="MLP-500-100", attempt=0))
        with JobManager(max_workers=2) as manager:
            response = manager.result(manager.submit(request))
            assert response.ok
            assert manager.stats.retried >= 1
            assert manager.stats.displaced == 0
            health = manager.pool.health
            assert health.broken_pool_events >= 1
            assert health.respawns >= 1
        # the retried response is bit-identical (seconds stripped) to a
        # fault-free compile of the same seed
        assert strip_seconds(response.summary.to_dict()) == strip_seconds(
            reference.summary.to_dict()
        )

    def test_coalesced_followers_survive_a_primary_crash(self, monkeypatch):
        request = CompileRequest(model="MLP-500-100", seed=0, max_retries=2)
        monkeypatch.setenv(FAULT_PLAN_ENV, crash_plan(model="MLP-500-100", attempt=0))
        with JobManager(max_workers=2, coalesce=True) as manager:
            job_ids = manager.submit_batch([request] * 3)
            responses = [manager.result(job_id) for job_id in job_ids]
        assert all(response.ok for response in responses)
        # the three submissions shared one (crashed, then retried) compile
        assert manager.stats.coalesced == 2
        assert manager.stats.retried >= 1

    def test_exhausted_retries_fan_out_a_typed_worker_crash_error(self, monkeypatch):
        # the crash matches every attempt, so the retry budget runs dry
        request = CompileRequest(model="MLP-500-100", max_retries=1)
        monkeypatch.setenv(FAULT_PLAN_ENV, crash_plan(model="MLP-500-100"))
        with JobManager(max_workers=1, coalesce=True) as manager:
            job_ids = manager.submit_batch([request] * 2)
            responses = [manager.result(job_id, timeout=120) for job_id in job_ids]
        for response in responses:
            assert not response.ok
            assert response.error.code == "worker_crash"
            assert response.error.retriable
        assert manager.stats.retried == 1

    def test_partitioned_compile_recovers_from_crash_and_hang(self, monkeypatch):
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
        monkeypatch.setenv(FAULT_PLAN_ENV, plan)
        with JobManager(max_workers=2) as manager:
            response = manager.result(
                manager.submit(
                    CompileRequest(model="MLP-500-100", seed=0, num_chips=2, max_retries=3)
                )
            )
            assert manager.stats.retried >= 1
        assert response.ok
        assert strip_seconds(response.summary.to_dict()) == strip_seconds(
            reference.summary.to_dict()
        )


class TestRetryPolicy:
    def test_transient_io_fault_is_retried(self, monkeypatch):
        plan = FaultPlan(
            faults=(
                FaultSpec(
                    site=SITE_WORKER_COMPILE,
                    kind="io_error",
                    match={"attempt": 0},
                ),
            )
        ).to_json()
        monkeypatch.setenv(FAULT_PLAN_ENV, plan)
        with ThreadPoolExecutor(max_workers=1) as pool, JobManager(pool=pool) as manager:
            response = manager.result(
                manager.submit(CompileRequest(model="MLP-500-100", max_retries=2))
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
        backoff_delay = jobs_module.backoff_delay
        request = CompileRequest(model="MLP-500-100", seed=5)
        first = backoff_delay(request, 1)
        second = backoff_delay(request, 2)
        # same (seed, fingerprint, attempt) -> same delay, replayable
        assert backoff_delay(CompileRequest(model="MLP-500-100", seed=5), 1) == first
        assert 0.0 <= first <= jobs_module.RETRY_BACKOFF_S
        assert 0.0 <= second <= 2 * jobs_module.RETRY_BACKOFF_S
        assert backoff_delay(request, 12) <= jobs_module.RETRY_BACKOFF_CAP_S
        # a different seed draws a different jitter
        assert backoff_delay(CompileRequest(model="MLP-500-100", seed=6), 1) != first

    def test_the_worker_sleeps_the_backoff_and_the_parent_starts_no_thread(
        self, manual_executor, monkeypatch
    ):
        request = CompileRequest(model="MLP-500-100", seed=3, max_retries=2)
        slept = []
        monkeypatch.setattr(time, "sleep", slept.append)
        started = []
        monkeypatch.setattr(threading.Thread, "start", lambda thread: started.append(thread))
        manual_executor.pending = True  # the retry waits for a worker
        manager = JobManager(pool=manual_executor)
        job_id = manager.submit(request)
        manual_executor.submitted[0][2].set_exception(OSError("disk went away"))
        # resubmitted at once, as attempt 1, and still RUNNING: not cancellable
        (_, args, _), = manual_executor.submitted[1:]
        assert args[-1] == 1
        assert manager.status(job_id).state == JobState.RUNNING
        assert manager.cancel(job_id) is False
        assert slept == []
        manual_executor.complete_all()  # the worker call, on this thread
        assert slept == [jobs_module.backoff_delay(request, 1)]
        assert manager.result(job_id, timeout=0).ok
        assert manager.stats.retried == 1
        assert started == []

    def test_the_retry_budget_defaults_per_request(self, manual_executor):
        manager = JobManager(pool=manual_executor)
        job_id = manager.submit(CompileRequest(model="MLP-500-100", seed=3))
        for attempt in range(jobs_module.DEFAULT_MAX_RETRIES + 1):
            manual_executor.submitted[attempt][2].set_exception(OSError("flaky"))
        assert manager.result(job_id, timeout=0).error.code == "transient_io"
        assert len(manual_executor.submitted) == jobs_module.DEFAULT_MAX_RETRIES + 1

    @pytest.mark.parametrize("follower_deadline_s, retried", [(None, 1), (0.05, 0)])
    def test_retries_last_while_any_waiting_deadline_is_open(
        self, manual_executor, monkeypatch, follower_deadline_s, retried
    ):
        monkeypatch.setattr(time, "sleep", lambda seconds: None)  # the backoff
        manager = JobManager(pool=manual_executor)
        primary = manager.submit(CompileRequest(model="MLP-500-100", deadline_s=0.05))
        follower = manager.submit(
            CompileRequest(model="MLP-500-100", deadline_s=follower_deadline_s)
        )
        now = time.monotonic()
        manager._clock = lambda: now + 0.1
        manual_executor.submitted[0][2].set_exception(OSError("flaky"))
        assert manager.stats.retried == retried
        manual_executor.complete_all()
        assert manager.result(primary, timeout=0).error.code == "deadline_exceeded"
        response = manager.result(follower, timeout=0)
        if follower_deadline_s is None:
            assert response.ok  # the retry it was owed served it
        else:
            assert response.error.code == "deadline_exceeded"

    def test_invalid_queue_settings_rejected(self):
        from repro.errors import InvalidRequestError

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

    def test_expired_deadline_publishes_a_typed_error(self, manual_executor):
        # the pool's futures complete only when the test says so: both jobs
        # stay in flight until the expiry has been observed, so the outcome
        # does not depend on how fast a compile runs
        pool = manual_executor
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

    def test_deadlines_start_no_thread(self, manual_executor):
        before = threading.active_count()
        manager = JobManager(pool=manual_executor)
        ids = [
            manager.submit(CompileRequest(model="MLP-500-100", seed=i, deadline_s=60.0))
            for i in range(64)
        ]
        assert threading.active_count() == before
        manual_executor.complete_all()
        assert all(manager.result(job_id, timeout=0).ok for job_id in ids)

    def test_an_overdue_job_with_no_waiter_reads_failed(self, manual_executor):
        manager = JobManager(pool=manual_executor)
        job_id = manager.submit(CompileRequest(model="MLP-500-100", deadline_s=60.0))
        assert manager.status(job_id).state == JobState.RUNNING
        now = time.monotonic()
        manager._clock = lambda: now + 61.0
        info = manager.status(job_id)
        assert info.state == JobState.FAILED
        assert info.error.code == "deadline_exceeded"
        assert info.seconds == pytest.approx(60.0)  # finished at the deadline
        assert manager.stats.deadline_expired == 1
        assert manager.jobs() == [info]
        manual_executor.complete_all()  # the late result is dropped
        assert manager.result(job_id, timeout=0).error.code == "deadline_exceeded"
        assert (manager.stats.deadline_expired, manager.stats.failed) == (1, 1)

    def test_a_result_landing_after_the_deadline_is_the_expiry(self, manual_executor):
        manager = JobManager(pool=manual_executor)
        job_id = manager.submit(CompileRequest(model="MLP-500-100", deadline_s=60.0))
        now = time.monotonic()
        manager._clock = lambda: now + 61.0
        manual_executor.complete_all()
        response = manager.result(job_id, timeout=0)
        assert response.error.code == "deadline_exceeded"
        assert manager.status(job_id).seconds == pytest.approx(60.0)
        assert manager.stats.deadline_expired == 1

    def test_waiters_racing_late_results_publish_each_job_once(self):
        # 6 waiter threads on 2 pool threads: expiries the waiters publish
        # race the compiles landing; job i lands after about i ms, and its
        # deadline is 1, 2 or 3 ms a place in the queue
        requests = [
            CompileRequest(model="MLP-500-100", seed=i, deadline_s=0.001 * (1 + i) * (1 + i % 3))
            for i in range(48)
        ]
        seen = [[] for _ in range(6)]

        def waiter(k: int) -> None:
            for job_id in ids[k::2] + ids:
                manager.status(job_id)
                seen[k].append(manager.result(job_id, timeout=60))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool, JobManager(
                pool=pool, cache=False
            ) as manager:
                ids = manager.submit_batch(requests)
                threads = [threading.Thread(target=waiter, args=(k,)) for k in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        responses = {job_id: manager.result(job_id, timeout=0) for job_id in ids}
        for k, answers in enumerate(seen):  # one published answer a job
            assert all(
                a is responses[j] for a, j in zip(answers, ids[k::2] + ids, strict=True)
            )
        codes = [r.error.code for r in responses.values() if not r.ok]
        assert set(codes) <= {"deadline_exceeded"}
        stats = manager.stats
        assert stats.completed + stats.failed == stats.submitted == 48
        assert stats.deadline_expired == len(codes)


class TestAdmissionControl:
    # the blocker stays in flight until the test completes it by hand: a
    # real compile of a zoo model is a few milliseconds, about as long as
    # the submitting thread waits for the GIL, so racing one is a coin toss

    def test_overload_rejects_with_a_retriable_typed_error(self, manual_executor):
        pool = manual_executor
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

    def test_rejected_submission_leaves_no_orphan_job(self, manual_executor):
        pool = manual_executor
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

        with ServingRuntime(max_workers=1) as runtime:
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
        ]
        assert (stats["submitted"], stats["completed"], stats["failed"]) == (1, 1, 0)

    def test_process_runtime_reports_pool_health(self):
        from repro.service import ServingRuntime

        with ServingRuntime(max_workers=1) as runtime:
            assert runtime.serve("MLP-500-100").ok
            health = runtime.health()
        assert health is not None
        assert health["broken_pool_events"] == 0
        assert health["respawns"] == 0
