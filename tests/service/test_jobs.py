"""Tests of the JobManager lifecycle (thread pool: fast, shares the cache)."""

import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.errors import CapacityError, InvalidRequestError
from repro.service import CompileRequest, JobManager, JobState


@pytest.fixture
def manager():
    with ThreadPoolExecutor(max_workers=2) as pool, JobManager(pool=pool) as jm:
        yield jm


class TestLifecycle:
    def test_submit_and_result(self, manager):
        job_id = manager.submit(CompileRequest(model="MLP-500-100"))
        response = manager.result(job_id)
        assert response.ok
        assert manager.status(job_id).state is JobState.DONE

    def test_submit_accepts_names_and_dicts(self, manager):
        ids = manager.submit_batch([
            "MLP-500-100",
            {"model": "MLP-500-100", "duplication_degree": 2},
        ])
        responses = manager.wait_all()
        assert [r.ok for r in responses] == [True, True]
        assert responses[1].request.duplication_degree == 2
        assert [manager.status(i).state for i in ids] == [JobState.DONE] * 2

    def test_results_in_submission_order(self, manager):
        ids = manager.submit_batch(
            [CompileRequest(model="MLP-500-100", duplication_degree=d) for d in (1, 2, 3)]
        )
        responses = [manager.result(i) for i in ids]
        assert [r.request.duplication_degree for r in responses] == [1, 2, 3]

    def test_failed_job_carries_error_payload(self, manager):
        job_id = manager.submit(CompileRequest(model="MLP-500-100", pe_budget=1))
        response = manager.result(job_id)
        assert not response.ok
        assert manager.status(job_id).state is JobState.FAILED
        assert manager.status(job_id).error.code == "capacity_error"
        with pytest.raises(CapacityError):
            response.raise_for_status()

    def test_unknown_job_id_rejected(self, manager):
        with pytest.raises(InvalidRequestError):
            manager.status("job-9999")
        with pytest.raises(InvalidRequestError):
            manager.result("job-9999")

    def test_jobs_listing(self, manager):
        manager.submit_batch(["MLP-500-100", "MLP-500-100"])
        manager.wait_all()
        infos = manager.jobs()
        assert len(infos) == 2
        assert all(info.state.finished for info in infos)
        assert [info.job_id for info in infos] == sorted(info.job_id for info in infos)

    def test_invalid_max_workers_rejected(self):
        with pytest.raises(InvalidRequestError):
            JobManager(max_workers=0)

    def test_result_timeout_raises_timeout_error(self):
        # saturate a single worker with an uncached heavier compile so the
        # second job is still queued when we ask for it with a zero budget
        with ThreadPoolExecutor(max_workers=1) as pool, JobManager(
            pool=pool, cache=False
        ) as jm:
            first = jm.submit("GoogLeNet")
            second = jm.submit("MLP-500-100")
            with pytest.raises(TimeoutError):
                jm.result(second, timeout=0)
            assert jm.result(first).ok
            assert jm.result(second).ok  # still completes normally afterwards

    def test_submit_after_shutdown_leaves_no_orphan(self):
        jm = JobManager(max_workers=1)
        jm.shutdown()
        with pytest.raises(RuntimeError):
            jm.submit("MLP-500-100")
        # the failed submission must not register a forever-QUEUED job
        assert jm.jobs() == []

    def test_a_refused_submit_is_not_counted(self):
        jm = JobManager(max_workers=1)
        jm.shutdown()
        with pytest.raises(RuntimeError):
            jm.submit("MLP-500-100")
        stats = jm.stats
        assert (stats.submitted, stats.completed, stats.failed) == (0, 0, 0)

    def test_a_follower_of_a_refused_submit_is_answered(self, manual_executor):
        # the pool refuses only after an identical request attached
        manager = JobManager(pool=manual_executor)
        followers = []

        def refuse(fn, *args):
            followers.append(manager.submit("MLP-500-100"))
            raise RuntimeError("cannot schedule new futures after shutdown")

        manual_executor.submit = refuse
        with pytest.raises(RuntimeError):
            manager.submit("MLP-500-100")
        assert manager.result(followers[0], timeout=0).error.code == "internal"
        stats = manager.stats
        assert (stats.submitted, stats.coalesced, stats.failed) == (1, 1, 1)
        assert [info.job_id for info in manager.jobs()] == followers


class TestCancel:
    def test_cancel_queued_job(self):
        # a single worker saturated by the first job leaves the rest QUEUED
        with ThreadPoolExecutor(max_workers=1) as pool, JobManager(pool=pool) as jm:
            ids = jm.submit_batch(["MLP-500-100"] * 4)
            cancelled_any = False
            for job_id in reversed(ids):
                if jm.cancel(job_id):
                    cancelled_any = True
                    response = jm.result(job_id)
                    assert not response.ok
                    assert response.error.code == "cancelled"
                    assert jm.status(job_id).state is JobState.FAILED
                    break
            # the rest still finish
            for job_id in ids[:1]:
                assert jm.result(job_id).ok
        # cancellation is timing-dependent; at minimum the API must not blow up
        assert cancelled_any or all(jm.status(i).state.finished for i in ids)

    def test_cancels_racing_attaches_cancel_only_their_own_job(self, manual_executor):
        # cancel and attach take one lock: a follower never shares a cancel
        manual_executor.pending = True  # queued until the test ends them
        manager = JobManager(pool=manual_executor)
        submitted, cancelled = [], []
        done = threading.Event()

        def submit() -> None:
            try:
                for seed in range(50):  # a primary, then its twin
                    for _ in range(2):
                        request = CompileRequest(model="MLP-500-100", seed=seed)
                        submitted.append(manager.submit(request))
                        time.sleep(0)  # let the canceller in between
            finally:
                done.set()

        def cancel() -> None:
            while not done.is_set():
                for job_id in submitted[-1:]:
                    if manager.cancel(job_id):
                        cancelled.append(job_id)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=submit), threading.Thread(target=cancel)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        manual_executor.complete_all()
        errors = {job_id: manager.result(job_id, timeout=0).error for job_id in submitted}
        assert {job_id for job_id, error in errors.items() if error} == set(cancelled)
        assert all(errors[job_id].code == "cancelled" for job_id in cancelled)
        assert manager.stats.submitted == manager.stats.completed + manager.stats.failed == 100

    def test_cancel_finished_job_returns_false(self, manager):
        job_id = manager.submit("MLP-500-100")
        manager.result(job_id)
        assert manager.cancel(job_id) is False


class TestCacheForwarding:
    # coalesce=False in both: a coalesced twin, in flight or concluded,
    # shares the first compile and never asks the cache

    def test_disabled_cache_reaches_workers(self):
        # cache=False must survive the worker boundary: two identical
        # requests on one worker see zero stage-cache hits
        with ThreadPoolExecutor(max_workers=1) as pool, JobManager(
            pool=pool, cache=False, coalesce=False
        ) as jm:
            ids = jm.submit_batch([CompileRequest(model="MLP-500-100")] * 2)
            responses = [jm.result(i) for i in ids]
        assert all(r.timings.cache_hits == 0 for r in responses)

    def test_shared_cache_instance_hits_across_jobs(self):
        from repro.core.cache import StageCache

        cache = StageCache()
        with ThreadPoolExecutor(max_workers=1) as pool, JobManager(
            pool=pool, cache=cache, coalesce=False
        ) as jm:
            ids = jm.submit_batch([CompileRequest(model="MLP-500-100")] * 2)
            responses = [jm.result(i) for i in ids]
        assert responses[0].timings.cache_hits == 0
        assert responses[1].timings.cache_hits > 0

    def test_private_cache_is_one_private_cache_per_worker_process(self):
        # a StageCache cannot cross the process boundary: the worker builds
        # its own, which its second job hits; the parent's is never consulted
        from repro.core.cache import StageCache

        cache = StageCache()
        with JobManager(max_workers=1, cache=cache) as jm:
            ids = jm.submit_batch(
                [CompileRequest(model="MLP-500-100", duplication_degree=d) for d in (1, 2)]
            )
            responses = [jm.result(i) for i in ids]
        assert all(r.ok for r in responses)
        assert responses[1].timings.cache_hits > 0
        assert len(cache) == 0


class TestProcessPool:
    def test_process_pool_round_trip(self):
        # one real process-pool run: requests and responses cross the
        # pickle boundary as wire dicts
        with JobManager(max_workers=2) as jm:
            ids = jm.submit_batch([
                CompileRequest(model="MLP-500-100"),
                CompileRequest(model="MLP-500-100", pe_budget=1),
            ])
            ok, failed = [jm.result(i) for i in ids]
        assert ok.ok
        assert not failed.ok
        assert failed.error.code == "capacity_error"
