"""Tests of the serving runtime: coalescing, warm-pool serving, stats."""

import os
import tempfile
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.fuzz.oracle import strip_seconds
from repro.service import (
    CompileRequest,
    CompileTimings,
    FPSAClient,
    JobManager,
    JobState,
    ServingRuntime,
)
from repro.service.client import serve_request


class TestRequestCoalescing:
    def test_identical_inflight_requests_share_one_compile(self, manual_executor):
        executor = manual_executor
        manager = JobManager(pool=executor)
        request = CompileRequest(model="MLP-500-100", tags={"who": "a"})
        twin = CompileRequest(model="MLP-500-100", tags={"who": "b"})
        other = CompileRequest(model="LeNet")
        first = manager.submit(request)
        second = manager.submit(twin)  # same fingerprint: tags excluded
        third = manager.submit(other)
        # exactly two compiles reached the pool: the twin coalesced
        assert len(executor.submitted) == 2
        assert manager.stats.submitted == 3
        assert manager.stats.coalesced == 1
        assert manager.status(second).coalesced
        assert manager.status(second).state == JobState.RUNNING
        executor.complete_all()
        r1 = manager.result(first, timeout=10)
        r2 = manager.result(second, timeout=10)
        r3 = manager.result(third, timeout=10)
        assert r1.ok and r2.ok and r3.ok
        # identical responses, but each under its own request (tags kept)
        assert r1.summary.to_dict() == r2.summary.to_dict()
        assert r1.request.tags == {"who": "a"}
        assert r2.request.tags == {"who": "b"}
        assert r3.summary.to_dict() != r1.summary.to_dict()
        assert manager.status(second).seconds is not None

    def test_finished_requests_coalesce_too(self, manual_executor):
        executor = manual_executor
        manager = JobManager(pool=executor)
        first = manager.submit("MLP-500-100")
        executor.complete_all()
        r1 = manager.result(first, timeout=10)
        # primary concluded: answered from it, before submit returns
        second = manager.submit(CompileRequest(model="MLP-500-100", tags={"who": "b"}))
        assert len(executor.submitted) == 1
        assert manager.stats.coalesced == 1
        info = manager.status(second)
        assert info.state == JobState.DONE and info.coalesced
        r2 = manager.result(second, timeout=0)
        assert r2.request.tags == {"who": "b"}
        assert (r2.summary, r2.timings) == (r1.summary, r1.timings)

    def test_coalesce_disabled(self, manual_executor):
        executor = manual_executor
        manager = JobManager(pool=executor, coalesce=False)
        manager.submit("MLP-500-100")
        manager.submit("MLP-500-100")
        assert len(executor.submitted) == 2
        assert manager.stats.coalesced == 0

    def test_follower_failure_fanout(self, manual_executor):
        executor = manual_executor
        manager = JobManager(pool=executor)
        first = manager.submit("no-such-model")
        second = manager.submit("no-such-model")
        assert len(executor.submitted) == 1
        executor.complete_all()
        r1 = manager.result(first, timeout=10)
        r2 = manager.result(second, timeout=10)
        assert not r1.ok and not r2.ok
        assert r1.error.code == r2.error.code == "unknown_model"
        assert manager.stats.failed == 2

    def test_follower_released_when_primary_submit_fails(self, manual_executor):
        # a follower that attached while the primary's pool.submit was in
        # flight must not hang forever when that submit raises
        executor = manual_executor
        manager = JobManager(pool=executor)

        # deterministically recreate the window: attach the follower while
        # the primary is registered in-flight but before its submit runs
        original_submit = executor.submit
        follower_ids = []

        def submit_with_interleaved_follower(fn, *args, **kwargs):
            executor.submit = original_submit  # only intercept once
            follower_ids.append(manager.submit("MLP-500-100"))
            raise RuntimeError("pool is gone")

        executor.submit = submit_with_interleaved_follower
        with pytest.raises(RuntimeError, match="pool is gone"):
            manager.submit("MLP-500-100")
        (follower_id,) = follower_ids
        response = manager.result(follower_id, timeout=5)  # must not hang
        assert not response.ok
        assert response.error.code == "internal"

    def test_cancel_retires_inflight_entry(self, manual_executor):
        executor = manual_executor
        manager = JobManager(pool=executor)
        primary = manager.submit("MLP-500-100")
        # ManualExecutor futures report RUNNING, so cancel() fails — but it
        # must restore the in-flight slot so later duplicates still coalesce
        assert manager.cancel(primary) is False
        manager.submit("MLP-500-100")
        assert manager.stats.coalesced == 1
        executor.complete_all()
        assert manager.result(primary, timeout=10).ok

    def test_followers_cannot_be_cancelled(self, manual_executor):
        executor = manual_executor
        manager = JobManager(pool=executor)
        manager.submit("MLP-500-100")
        follower = manager.submit("MLP-500-100")
        assert manager.cancel(follower) is False
        executor.complete_all()
        assert manager.result(follower, timeout=10).ok

    def test_coalescing_with_thread_pool_end_to_end(self):
        # a real (thread) pool: whether or not the duplicates coalesce is
        # timing-dependent, but the responses must always be correct
        with ThreadPoolExecutor(max_workers=2) as pool, JobManager(pool=pool) as manager:
            ids = [manager.submit("MLP-500-100") for _ in range(4)]
            responses = [manager.result(job_id, timeout=60) for job_id in ids]
        assert all(r.ok for r in responses)
        summaries = {str(sorted(r.summary.to_dict().items())) for r in responses}
        assert len(summaries) == 1


class TestServingRuntime:
    def test_serve_batch_processes_warm_pool(self):
        with ServingRuntime(max_workers=2) as runtime:
            first = runtime.serve_batch(["MLP-500-100", "LeNet"])
            pids = runtime.stats()["worker_pids"]
            second = runtime.serve_batch(["MLP-500-100", "LeNet"])
            assert runtime.stats()["worker_pids"] == pids
        assert all(r.ok for r in first + second)
        for a, b in zip(first, second, strict=True):
            assert a.summary.to_dict() == b.summary.to_dict()
        # pool, stage cache and coalescing may change *when* work happens,
        # never *what*: each summary equals a cache-free in-process compile
        for model, served in zip(["MLP-500-100", "LeNet"], first, strict=True):
            direct = FPSAClient(cache=False).compile(model)
            assert strip_seconds(served.summary.to_dict()) == strip_seconds(
                direct.summary.to_dict()
            )

    def test_a_runtime_makes_no_temporary_directory(self, tmp_path, monkeypatch):
        monkeypatch.setattr(tempfile, "tempdir", str(tmp_path))
        with ServingRuntime(max_workers=1) as runtime:
            assert runtime.serve(CompileRequest(model="MLP-500-100", run_pnr=True)).ok
        assert os.listdir(tmp_path) == []

    def test_serve_single(self):
        with ServingRuntime(max_workers=1) as runtime:
            response = runtime.serve("MLP-500-100")
        assert response.ok

    @pytest.mark.parametrize(
        "settings", [{"max_workers": 0}, {"max_queue_depth": True}, {"max_queue_depth": 0}]
    )
    def test_rejected_settings_raise(self, settings):
        from repro.errors import InvalidRequestError

        with pytest.raises(InvalidRequestError):
            ServingRuntime(**settings)

    def test_dedup_store_dir_is_ignored(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_DEDUP_STORE", raising=False)
        directory = tmp_path / "d"
        with ServingRuntime(max_workers=1, dedup_store_dir=str(directory)) as runtime:
            response = runtime.serve(CompileRequest(model="MLP-500-100", dedup=True))
            assert "dedup_store_dir" not in runtime.stats()
        assert response.ok
        assert "REPRO_DEDUP_STORE" not in os.environ
        assert not directory.exists()


class TestRetiredCounters:
    def test_a_compile_reports_the_retired_counters_as_zero(self):
        from repro.core.cache import StageCache

        request = CompileRequest(model="MLP-500-100", run_pnr=True)
        cache = StageCache(max_entries=1)
        serve_request(request, cache=cache)
        timings = serve_request(request, cache=cache).response.timings
        assert (timings.cache_hits, timings.evictions) == (0, 3)
        # wire fields older runs carry; no compile counts them any more
        assert (timings.shared_cache_hits, timings.shared_cache_misses) == (0, 0)
        assert timings.write_errors == 0
        clone = CompileTimings.from_json(timings.to_json())
        assert clone == timings

    def test_old_wire_payload_still_parses(self):
        # payloads from before the shared-cache counters must deserialize
        data = {
            "passes": [],
            "total_seconds": 0.5,
            "cache_hits": 1,
            "cache_misses": 2,
        }
        timings = CompileTimings.from_dict(data)
        assert timings.shared_cache_hits == 0
        assert timings.evictions == 0
