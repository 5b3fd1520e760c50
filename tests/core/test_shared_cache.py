"""Tests of the per-process stage cache, and of the disk cache that only
the benchmark's core probe still times (no compile reaches it)."""

import os
import pickle

import pytest

from repro.core.cache import CacheStats, StageCache, default_cache
from repro.core.shared_cache import SharedStageCache


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

    def test_a_failed_put_returns_false(self, tmp_path):
        cache = SharedStageCache(str(tmp_path / "shared"))
        key = "a" * 16
        (tmp_path / "shared" / key[:2]).write_text("a file where the shard directory goes")
        assert cache.put(key, {"x": 1}) is False
        assert key not in cache

    def test_readonly_directory_degrades_to_a_failed_put(self, tmp_path):
        directory = tmp_path / "shared"
        cache = SharedStageCache(str(directory))
        os.chmod(directory, 0o500)
        try:
            if os.access(str(directory), os.W_OK):
                pytest.skip("running as a user the mode bits cannot stop")
            assert cache.put("e" * 16, {"x": 5}) is False
            assert len(cache) == 0
        finally:
            os.chmod(directory, 0o700)

    def test_max_bytes_validated(self, tmp_path):
        with pytest.raises(ValueError):
            SharedStageCache(str(tmp_path), max_bytes=0)


class TestProcessBoundary:
    """A StageCache crosses a pickle boundary by one rule (``__reduce__``)."""

    def test_default_cache_arrives_as_the_default_cache(self):
        assert pickle.loads(pickle.dumps(default_cache())) is default_cache()

    def test_private_cache_arrives_as_an_empty_copy(self):
        cache = StageCache(max_entries=7)
        cache.put("k", {"a": 1})
        copy = pickle.loads(pickle.dumps(cache))
        assert copy is not cache
        assert copy.max_entries == 7
        assert len(copy) == 0
        assert copy.get("k") is None  # the memory stayed behind

    def test_repeat_unpickles_return_one_copy(self):
        cache = StageCache()
        first = pickle.loads(pickle.dumps(cache))
        assert pickle.loads(pickle.dumps(cache)) is first
        assert pickle.loads(pickle.dumps(first)) is first

    def test_a_forked_child_starts_with_no_copies(self):
        from repro.core import cache as cache_module

        copy = pickle.loads(pickle.dumps(StageCache()))
        assert copy._token in cache_module._COPIES
        pid = os.fork()
        if pid == 0:  # the child: exit 0 only if it inherited no copies
            os._exit(0 if not cache_module._COPIES else 1)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0
        assert copy._token in cache_module._COPIES  # the parent keeps its own

    def test_process_job_manager_leaves_the_private_cache_empty(self):
        from repro.service import CompileRequest, JobManager

        cache = StageCache()
        request = CompileRequest(model="MLP-500-100", run_pnr=True)
        with JobManager(max_workers=1, cache=cache) as jm:
            response = jm.result(jm.submit(request))
        assert response.ok
        assert len(cache) == 0  # the worker compiled against its copy


class TestCacheStats:
    def test_merge_accumulates_evictions(self):
        total = CacheStats(evictions=1)
        assert total.merge(CacheStats(evictions=2)) is total
        assert total == CacheStats(evictions=3)

    def test_merge_of_none_is_a_no_op(self):
        total = CacheStats(evictions=4)
        assert total.merge(None) is total
        assert total == CacheStats(evictions=4)


class TestStageCache:
    def test_get_and_put(self):
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

    def test_per_compile_stats_do_not_leak_across_concurrent_compiles(self):
        """The per-compile counters are tallied by the run itself, so a
        concurrent compile hammering the same cache can't inflate them."""
        import threading

        from repro.core.compiler import FPSACompiler
        from repro.models.zoo import build_model

        cache = StageCache()
        compiler = FPSACompiler(cache=cache)
        stop = threading.Event()
        lookups = []

        def hammer():
            while not stop.is_set():
                cache.get("unrelated-key")  # another compile's misses
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

    def test_get_refreshes_lru_position(self):
        cache = StageCache(max_entries=2)
        cache.put("a", {"v": 1})
        cache.put("b", {"v": 2})
        assert cache.get("a") == {"v": 1}  # `a` is now the most recent
        cache.put("c", {"v": 3})
        assert "b" not in cache
        assert cache.get("a") == {"v": 1} and cache.get("c") == {"v": 3}

    def test_timings_table_reports_the_memory_cache_only(self):
        from repro.core.compiler import FPSACompiler
        from repro.models.zoo import build_model

        compiler = FPSACompiler(cache=StageCache())
        compiler.compile(build_model("MLP-500-100"))
        warm = compiler.compile(build_model("MLP-500-100"))
        assert warm.timings_table().splitlines()[-1] == (
            "stage cache: 2 hit(s), 2 miss(es), 0 eviction(s)"
        )

    def test_max_entries_validated(self):
        with pytest.raises(ValueError):
            StageCache(max_entries=0)

    def test_contains(self):
        cache = StageCache()
        cache.put("k", {"a": 1})
        assert "k" in cache
        assert "absent" not in cache


def test_no_src_module_imports_the_disk_cache():
    """The artifact store is the one cross-process memory: no module of the
    package reaches for the disk cache only the benchmark still times."""
    import ast
    import pathlib

    import repro

    root = pathlib.Path(repro.__file__).parent
    importers = []
    for path in root.rglob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = [getattr(node, "module", None) or ""]
                names += [alias.name for alias in node.names]
                if any(name.split(".")[-1] == "shared_cache" for name in names):
                    importers.append(str(path.relative_to(root)))
    assert importers == []


def test_no_src_module_names_the_retired_tier():
    """The tier's wiring left every compile path: no module of the package
    names its option, environment variables, counters or fault sites."""
    import pathlib
    import re

    import repro

    retired = re.compile(
        r"\b(shareable|shared_cache_from_env|REPRO_SHARED_CACHE|"
        r"REPRO_SHARED_CACHE_MAX_BYTES|shared_hits|shared_misses|"
        r"SITE_SHARED_CACHE_GET|SITE_SHARED_CACHE_PUT)\b"
    )
    root = pathlib.Path(repro.__file__).parent
    hits = [
        f"{path.relative_to(root)}:{number}"
        for path in root.rglob("*.py")
        for number, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if retired.search(line)
    ]
    assert hits == []
