"""Tests of the cross-process shared stage-cache tier."""

import os
import pickle

import pytest

from repro.core.cache import CacheStats, StageCache, default_cache
from repro.core.shared_cache import (
    SHARED_CACHE_ENV,
    SHARED_CACHE_MAX_BYTES_ENV,
    SharedStageCache,
    shared_cache_from_env,
)
from repro.errors import InvalidRequestError
from repro.service import CompileRequest, serve_request


class TestSharedStageCache:
    def test_roundtrip(self, tmp_path):
        cache = SharedStageCache(str(tmp_path))
        assert cache.get("a" * 64) is None
        assert cache.put("a" * 64, {"coreops": [1, 2, 3]})
        assert cache.get("a" * 64) == {"coreops": [1, 2, 3]}
        assert len(cache) == 1

    def test_repr_names_the_directory_and_the_bound(self, tmp_path):
        cache = SharedStageCache(str(tmp_path), max_bytes=4096)
        assert repr(cache) == f"<SharedStageCache {str(tmp_path)!r} max_bytes=4096>"

    def test_second_handle_sees_entries(self, tmp_path):
        # two handles onto one directory model two processes
        writer = SharedStageCache(str(tmp_path))
        reader = SharedStageCache(str(tmp_path))
        writer.put("k" * 64, {"mapping": {"x": 1}})
        assert reader.get("k" * 64) == {"mapping": {"x": 1}}

    def test_unpicklable_artifacts_are_skipped(self, tmp_path):
        cache = SharedStageCache(str(tmp_path))
        assert not cache.put("b" * 64, {"bad": lambda: None})
        assert len(cache) == 0
        assert cache.get("b" * 64) is None

    def test_corrupt_entry_is_dropped(self, tmp_path):
        cache = SharedStageCache(str(tmp_path))
        cache.put("c" * 64, {"x": 1})
        path = cache._path("c" * 64)
        with open(path, "wb") as handle:
            handle.write(b"not a pickle")
        assert cache.get("c" * 64) is None
        assert not os.path.exists(path)  # dropped, not retried forever
        # a subsequent put repairs the entry
        cache.put("c" * 64, {"x": 2})
        assert cache.get("c" * 64) == {"x": 2}

    def test_lru_eviction_by_size(self, tmp_path):
        payload = {"blob": b"x" * 4096}
        entry_size = len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        cache = SharedStageCache(str(tmp_path), max_bytes=3 * entry_size)
        keys = [f"{i:02d}" + "e" * 62 for i in range(5)]
        for key in keys:
            cache.put(key, payload)
        assert len(cache) <= 3  # at least two evicted
        assert not os.path.exists(cache._path(keys[0]))
        assert cache.total_bytes() <= 3 * entry_size
        # the most recent entry always survives
        assert cache.get(keys[-1]) is not None

    def test_get_refreshes_lru_position(self, tmp_path):
        payload = {"blob": b"y" * 4096}
        entry_size = len(pickle.dumps(payload, pickle.HIGHEST_PROTOCOL))
        cache = SharedStageCache(str(tmp_path), max_bytes=2 * entry_size)
        a, b = "aa" + "f" * 62, "bb" + "f" * 62
        cache.put(a, payload)
        cache.put(b, payload)
        # make `a` the most recently used, then overflow: `b` must go
        path_a, path_b = cache._path(a), cache._path(b)
        os.utime(path_a, (os.path.getmtime(path_b) + 10,) * 2)
        cache.put("cc" + "f" * 62, payload)
        assert cache.get(a) is not None
        assert cache.get(b) is None

    def test_clear(self, tmp_path):
        cache = SharedStageCache(str(tmp_path))
        cache.put("d" * 64, {"x": 1})
        cache.clear()
        assert len(cache) == 0
        assert cache.get("d" * 64) is None

    def test_max_bytes_validated(self, tmp_path):
        with pytest.raises(ValueError):
            SharedStageCache(str(tmp_path), max_bytes=0)

    def test_from_env(self, tmp_path, monkeypatch):
        monkeypatch.delenv(SHARED_CACHE_ENV, raising=False)
        assert shared_cache_from_env() is None
        monkeypatch.setenv(SHARED_CACHE_ENV, str(tmp_path))
        monkeypatch.setenv(SHARED_CACHE_MAX_BYTES_ENV, "12345")
        cache = shared_cache_from_env()
        assert cache is not None
        assert cache.directory == str(tmp_path)
        assert cache.max_bytes == 12345

    @pytest.mark.parametrize("raw", ["0", "lots"])
    def test_bad_max_bytes_from_env_is_named(self, tmp_path, monkeypatch, raw):
        monkeypatch.setenv(SHARED_CACHE_ENV, str(tmp_path))
        monkeypatch.setenv(SHARED_CACHE_MAX_BYTES_ENV, raw)
        with pytest.raises(InvalidRequestError) as err:
            shared_cache_from_env()
        assert f"{SHARED_CACHE_MAX_BYTES_ENV}={raw!r}" in str(err.value)


class TestProcessBoundary:
    """A StageCache crosses a pickle boundary by one rule (``__reduce__``)."""

    def test_default_cache_arrives_as_the_default_cache(self):
        assert pickle.loads(pickle.dumps(default_cache())) is default_cache()

    def test_private_cache_arrives_as_an_empty_copy_over_its_tier(self, tmp_path):
        cache = StageCache(
            max_entries=7, shared=SharedStageCache(str(tmp_path), max_bytes=12345)
        )
        cache.put("k", {"a": 1})
        copy = pickle.loads(pickle.dumps(cache))
        assert copy is not cache
        assert copy.max_entries == 7
        assert len(copy) == 0
        assert copy.shared.directory == cache.shared.directory
        assert copy.shared.max_bytes == 12345
        # the memory stayed behind; the disk tier came along
        tally = CacheStats()
        assert copy.get("k", tally) == {"a": 1}
        assert tally == CacheStats(shared_hits=1)

    def test_repeat_unpickles_return_one_copy(self):
        cache = StageCache()
        first = pickle.loads(pickle.dumps(cache))
        assert pickle.loads(pickle.dumps(cache)) is first
        assert pickle.loads(pickle.dumps(first)) is first
        assert first.shared is None

    def test_process_job_manager_writes_the_private_caches_tier(self, tmp_path):
        from repro.service import CompileRequest, JobManager

        cache = StageCache(shared=SharedStageCache(str(tmp_path)))
        request = CompileRequest(model="MLP-500-100", run_pnr=True)
        with JobManager(max_workers=1, cache=cache) as jm:
            response = jm.result(jm.submit(request))
        assert response.ok
        assert _tier_artifacts(SharedStageCache(str(tmp_path))) == [("pnr",)]
        assert len(cache) == 0  # the worker compiled against its copy


class TestTwoTierStageCache:
    def test_memory_miss_falls_through_to_shared(self, tmp_path):
        shared = SharedStageCache(str(tmp_path))
        first = StageCache(shared=shared)
        first.put("k1", {"coreops": "artifact"})
        # a different in-memory cache over the same shared directory: the
        # in-memory miss is served by the shared tier
        second = StageCache(shared=SharedStageCache(str(tmp_path)))
        assert second.get("k1") == {"coreops": "artifact"}
        # and the entry was promoted into the in-memory tier
        assert len(second) == 1
        second.shared = None
        assert second.get("k1") == {"coreops": "artifact"}

    def test_no_shared_tier_behaves_as_before(self):
        cache = StageCache()
        assert cache.get("absent") is None
        cache.put("k", {"a": 1})
        assert cache.get("k") == {"a": 1}
        assert len(cache) == 1

    def test_evictions_counted(self):
        cache = StageCache(max_entries=2)
        tally = CacheStats()
        for i in range(5):
            cache.put(f"k{i}", {"v": i}, tally)
        assert tally.evictions == 3
        assert len(cache) == 2
        assert cache.get("k0") is None and cache.get("k4") == {"v": 4}

    def test_installing_a_shared_hit_is_not_an_eviction(self, tmp_path):
        writer = StageCache(shared=SharedStageCache(str(tmp_path)))
        writer.put("k1", {"a": 1})
        writer.put("k2", {"b": 2})
        reader = StageCache(max_entries=1, shared=SharedStageCache(str(tmp_path)))
        tally = CacheStats()
        assert reader.get("k1", tally) == {"a": 1}
        assert reader.get("k2", tally) == {"b": 2}  # pushes k1 out of memory
        assert len(reader) == 1
        assert tally == CacheStats(shared_hits=2)

    @pytest.mark.parametrize(
        "tiered, key, artifacts, expected",
        [
            (False, "k", {"a": 1}, CacheStats()),
            (False, "absent", None, CacheStats()),
            (True, "k2", {"b": 2}, CacheStats(shared_hits=1)),
            (True, "absent", None, CacheStats(shared_misses=1)),
        ],
        ids=["memory-hit", "miss", "shared-hit", "shared-miss"],
    )
    def test_lookup_reports_tier(self, tmp_path, tiered, key, artifacts, expected):
        """The four outcomes of ``get(key, tally)``, as the tally counts them."""
        StageCache(shared=SharedStageCache(str(tmp_path))).put("k2", {"b": 2})
        cache = StageCache(shared=SharedStageCache(str(tmp_path)) if tiered else None)
        cache.put("k", {"a": 1})
        tally = CacheStats()
        assert cache.get(key, tally) == artifacts
        assert tally == expected

    def test_per_compile_stats_do_not_leak_across_concurrent_compiles(self):
        """The per-compile counters are tallied by the run itself, so a
        concurrent compile hammering the same cache can't inflate them."""
        import threading

        from repro.core.compiler import FPSACompiler
        from repro.models.zoo import build_model

        cache = StageCache()
        compiler = FPSACompiler(cache=cache)
        stop = threading.Event()
        hammered = CacheStats()
        lookups = []

        def hammer():
            while not stop.is_set():
                cache.get("unrelated-key", hammered)  # another compile's misses
                lookups.append(1)

        thread = threading.Thread(target=hammer)
        thread.start()
        try:
            result = compiler.compile(build_model("MLP-500-100"))
        finally:
            stop.set()
            thread.join()
        # a cold compile runs its 4 passes, none served from the cache, and
        # its tally holds nothing of the hammering thread's lookups
        assert (result.cache_hits, result.cache_misses) == (0, 4)
        assert result.cache_stats == CacheStats()
        assert lookups

    def test_contains_checks_both_tiers(self, tmp_path):
        shared = SharedStageCache(str(tmp_path))
        StageCache(shared=shared).put("k", {"a": 1})
        fresh = StageCache(shared=SharedStageCache(str(tmp_path)))
        assert "k" in fresh
        assert "absent" not in fresh

    def test_unshareable_entry_stays_in_memory(self, tmp_path):
        cache = StageCache(shared=SharedStageCache(str(tmp_path)))
        tally = CacheStats()
        cache.put("k", {"mapping": 1}, tally, shareable=False)
        assert cache.get("k", tally, shareable=False) == {"mapping": 1}
        assert len(cache.shared) == 0
        fresh = StageCache(shared=SharedStageCache(str(tmp_path)))
        assert fresh.get("k", tally, shareable=False) is None
        # neither tier-less lookup nor put reached the shared tier's books
        assert tally == CacheStats()


def _tier_artifacts(tier: SharedStageCache) -> list[tuple[str, ...]]:
    """The artifact names of every entry in ``tier``, one tuple each."""
    names = []
    for root, _, files in os.walk(tier.directory):
        for name in files:
            if name.endswith(".pkl"):
                with open(os.path.join(root, name), "rb") as handle:
                    names.append(tuple(sorted(pickle.load(handle))))
    return sorted(names)


class TestWhatTheTierHolds:
    """A cold compile shares only what is much cheaper to load than to
    redo: its P&R result.  Synthesis, partition and mapping results stay
    in the memory tier."""

    #: the ``serve_mixed`` catalogue: every zoo model at seven duplications.
    CATALOGUE_MODELS = (
        "MLP-500-100", "LeNet", "CIFAR-VGG17", "AlexNet", "VGG16",
        "GoogLeNet", "ResNet152",
    )
    CATALOGUE_DUPLICATIONS = (1, 2, 4, 8, 16, 32, 64)

    def test_serve_catalogue_leaves_the_tier_empty(self, tmp_path):
        cache = StageCache(shared=SharedStageCache(str(tmp_path)))
        for model in self.CATALOGUE_MODELS:
            for duplication in self.CATALOGUE_DUPLICATIONS:
                request = CompileRequest(
                    model=model, duplication_degree=duplication, dedup=True
                )
                response = serve_request(request, cache=cache).response
                assert response.ok
                # no stage of a compile without P&R even asks the tier
                assert response.timings.shared_cache_misses == 0
        assert _tier_artifacts(cache.shared) == []

    def test_only_pnr_results_are_shared(self, tmp_path):
        cache = StageCache(shared=SharedStageCache(str(tmp_path)))
        for request in (
            CompileRequest(model="MLP-500-100", run_pnr=True),
            CompileRequest(model="LeNet", num_chips=2, run_pnr=True),
        ):
            assert serve_request(request, cache=cache).response.ok
        # one routing for the 1-chip compile, one per shard of the 2-chip one
        assert _tier_artifacts(cache.shared) == [("pnr",)] * 3
