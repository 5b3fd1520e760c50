"""Tests of the persistent warm worker pool and the cache it hands workers.

These tests spawn real worker processes; the models are the cheapest zoo
entries so the whole module stays in the seconds range.
"""

import os
import sys
import threading

from repro.core.api import WorkerPool, deploy_model
from repro.core.cache import StageCache
from repro.service import CompileRequest, FPSAClient, ServingRuntime


def _compile_with_stats(model, cache, run_pnr=False):
    """Worker: compile through ``cache`` as it arrived in this process (a
    cache new to the process arrives with empty memory), return the
    per-compile cache counters (picklable summary only)."""
    result = deploy_model(model, cache=cache, run_pnr=run_pnr)
    return {
        "pid": os.getpid(),
        "throughput": result.throughput_samples_per_s,
        "hits": result.cache_hits,
        "misses": result.cache_misses,
    }


POINTS = [("MLP-500-100", 1), ("LeNet", 2)]


def _submit_all(pool, worker, argument_lists):
    futures = [pool.submit(worker, *args) for args in argument_lists]
    return [f.result() for f in futures]


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


class TestCacheAcrossProcesses:
    def test_a_fresh_worker_compiles_cold(self):
        """A private cache arrives in each worker process as an empty copy:
        no stage result crosses between processes, so the second pool's
        worker compiles again, and computes the same answer."""
        cache = StageCache()
        with WorkerPool(max_workers=1) as pool:
            first = pool.submit(_compile_with_stats, "MLP-500-100", cache, True).result()
            first_pid = pool.worker_pids()[0]
            again = pool.submit(_compile_with_stats, "MLP-500-100", cache, True).result()
        with WorkerPool(max_workers=1) as pool:
            second = pool.submit(_compile_with_stats, "MLP-500-100", cache, True).result()
            second_pid = pool.worker_pids()[0]
        assert first_pid != second_pid
        assert first["hits"] == second["hits"] == 0
        assert again["hits"] == again["misses"] + 1  # the same worker's memory
        assert second["throughput"] == first["throughput"]

    def test_a_runtime_ignores_a_shared_cache_dir(self, tmp_path):
        """``shared_cache_dir`` is accepted and unused: no directory is
        made, and the stats name none."""
        directory = tmp_path / "tier"
        with ServingRuntime(max_workers=1, shared_cache_dir=str(directory)) as runtime:
            assert runtime.serve(CompileRequest(model="MLP-500-100")).ok
            assert "shared_cache_dir" not in runtime.stats()
        assert not directory.exists()

    def test_partitioned_artifacts_identical_from_the_cache(self):
        """1-chip and partitioned compiles must stay bit-identical whether
        artifacts come from a live pass run or the stage cache."""

        def serve(cache):
            client = FPSAClient(cache=cache)
            plain = client.compile(
                CompileRequest(model="CIFAR-VGG17", seed=7, run_pnr=True)
            )
            parted = client.compile(
                CompileRequest(model="CIFAR-VGG17", seed=7, num_chips=2, run_pnr=True)
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
        warm_cache = StageCache()
        serve(warm_cache)  # populate
        warm_plain, warm_parted = serve(warm_cache)
        # every P&R result, one per shard too, comes from the cache
        for warm, shards in ((warm_plain, 1), (warm_parted, 2)):
            pnr = [p for p in warm.timings.passes if p.name.split("@")[0] == "pnr"]
            assert len(pnr) == shards and all(p.cached for p in pnr)
        assert quality(warm_plain) == quality(cold_plain)
        assert quality(warm_parted) == quality(cold_parted)
