"""Tests of the persistent warm worker pool and the cross-process cache.

These tests spawn real worker processes; the models are the cheapest zoo
entries so the whole module stays in the seconds range.
"""

import os
import sys
import threading

from repro.core.api import WorkerPool, deploy_model
from repro.core.cache import StageCache, default_cache
from repro.core.compiler import FPSACompiler
from repro.core.shared_cache import (
    SHARED_CACHE_ENV,
    SHARED_CACHE_MAX_BYTES_ENV,
    SharedStageCache,
    shared_cache_from_env,
)
from repro.service import CompileRequest, FPSAClient, ServingRuntime


def _compile_with_stats(model, cache):
    """Worker: compile through ``cache`` as it arrived in this process (a
    cache new to the process arrives with empty memory), return the
    per-compile cache stats (picklable summary only)."""
    result = deploy_model(model, cache=cache)
    stats = result.cache_stats
    return {
        "pid": os.getpid(),
        "throughput": result.throughput_samples_per_s,
        "hits": result.cache_hits,
        "misses": result.cache_misses,
        "shared_hits": stats.shared_hits,
        "shared_misses": stats.shared_misses,
    }


POINTS = [("MLP-500-100", 1), ("LeNet", 2)]


def _submit_all(pool, worker, argument_lists):
    futures = [pool.submit(worker, *args) for args in argument_lists]
    return [f.result() for f in futures]


def _tier_bound(cache):
    """Worker: the size bound of the disk tier a compile handed ``cache``
    runs against in this process."""
    return FPSACompiler(cache=cache).cache.shared.max_bytes


class TestWorkerPool:
    def test_worker_pids_stable_across_batches(self):
        # the warm-pool contract: consecutive rounds of submits land on
        # the same worker processes (no per-round pool spawn)
        models = [(model, StageCache()) for model, _ in POINTS]
        with WorkerPool(max_workers=2) as pool:
            first = _submit_all(pool, _compile_with_stats, models)
            pids_after_first = pool.worker_pids()
            second = _submit_all(pool, _compile_with_stats, models)
            pids_after_second = pool.worker_pids()
        assert pids_after_first == pids_after_second
        assert {r["pid"] for r in first + second} <= set(pids_after_first)
        assert os.getpid() not in pids_after_first
        for a, b in zip(first, second, strict=True):
            assert a["throughput"] == b["throughput"]

    def test_concurrent_submitters_each_get_their_own_answer(self):
        # more workers than cores, more submitting threads than workers,
        # and a short switch interval: a job handed to two workers, or an
        # answer completing the wrong future, breaks the pairing below
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with WorkerPool(max_workers=3) as pool:
                answers: dict[int, list] = {}

                def submitter(k: int) -> None:
                    futures = [(i, pool.submit(pow, 1000 * k + i, 2)) for i in range(40)]
                    answers[k] = [(i, f.result(timeout=60)) for i, f in futures]

                threads = [threading.Thread(target=submitter, args=(k,)) for k in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=120)
                assert not any(thread.is_alive() for thread in threads)
                assert len(pool.worker_pids()) == 3 and pool.health.respawns == 0
        finally:
            sys.setswitchinterval(interval)
        for k in range(6):
            assert answers[k] == [(i, (1000 * k + i) ** 2) for i in range(40)]

    def test_results_match_sequential(self):
        sequential = [deploy_model(m, d) for m, d in POINTS]
        with WorkerPool(max_workers=2) as pool:
            pooled = _submit_all(pool, deploy_model, POINTS)
        for a, b in zip(sequential, pooled, strict=True):
            assert a.throughput_samples_per_s == b.throughput_samples_per_s
            assert a.area_mm2 == b.area_mm2
            assert a.mapping.netlist.n_pe == b.mapping.netlist.n_pe


class TestSharedCacheAcrossProcesses:
    def test_hit_from_a_different_process(self, tmp_path):
        """Worker N's synthesis serves worker M's lookup: two *fresh*
        single-worker pools over one shared directory — the second pool's
        worker is a different process and must hit the shared tier."""
        cache = StageCache(shared=SharedStageCache(str(tmp_path)))
        with WorkerPool(max_workers=1) as pool:
            first = pool.submit(_compile_with_stats, "MLP-500-100", cache).result()
            first_pid = pool.worker_pids()[0]
        with WorkerPool(max_workers=1) as pool:
            second = pool.submit(_compile_with_stats, "MLP-500-100", cache).result()
            second_pid = pool.worker_pids()[0]
        assert first_pid != second_pid
        assert first["shared_hits"] == 0  # nothing published yet: cold
        assert second["shared_hits"] > 0  # served by the first worker's work
        assert second["hits"] >= second["shared_hits"]
        # the shared tier must not change what gets computed
        assert second["throughput"] == first["throughput"]

    def test_environment_bound_reaches_every_worker(self, tmp_path, monkeypatch):
        """The tier ``REPRO_SHARED_CACHE`` names keeps its
        ``REPRO_SHARED_CACHE_MAX_BYTES`` bound in every worker: the pool's
        workers keep this process's default cache, the runtime's compile
        against the cache it hands them."""
        monkeypatch.setenv(SHARED_CACHE_ENV, str(tmp_path))
        monkeypatch.setenv(SHARED_CACHE_MAX_BYTES_ENV, "12345")
        # this process as if it had started under that environment
        monkeypatch.setattr(default_cache(), "shared", shared_cache_from_env())
        with WorkerPool(max_workers=1) as pool:
            assert pool.submit(_tier_bound, None).result() == 12345
        with ServingRuntime(max_workers=1) as runtime:
            handed = runtime.manager.cache
            assert runtime.pool.submit(_tier_bound, handed).result() == 12345
            assert runtime.stats()["shared_cache_dir"] == str(tmp_path)

    def test_partitioned_artifacts_identical_under_shared_cache(self, tmp_path):
        """1-chip and partitioned compiles must stay bit-identical whether
        artifacts come from a live pass run or the shared disk tier."""
        from repro.core.cache import StageCache
        from repro.core.shared_cache import SharedStageCache

        def serve(cache):
            client = FPSAClient(cache=cache)
            plain = client.compile(
                CompileRequest(model="CIFAR-VGG17", seed=7, run_pnr=True)
            )
            parted = client.compile(
                CompileRequest(model="CIFAR-VGG17", seed=7, num_chips=2)
            )
            return plain, parted

        def quality(response):
            # wall-clock fields ride the pnr summary; strip them — the
            # bit-identity claim is about artifacts, not timings
            data = response.summary.to_dict()
            for section in data.values():
                if isinstance(section, dict):
                    for key in [k for k in section if k.endswith("_seconds")]:
                        del section[key]
            return data

        cold_plain, cold_parted = serve(StageCache())
        # a fresh in-memory cache over the now-populated shared directory:
        # every cacheable pass is served from disk pickles
        shared_dir = str(tmp_path)
        warm_cache = StageCache(shared=SharedStageCache(shared_dir))
        serve(StageCache(shared=SharedStageCache(shared_dir)))  # populate
        warm_plain, warm_parted = serve(warm_cache)
        assert warm_plain.timings.shared_cache_hits > 0
        assert warm_parted.timings.shared_cache_hits > 0
        assert quality(warm_plain) == quality(cold_plain)
        assert quality(warm_parted) == quality(cold_parted)
