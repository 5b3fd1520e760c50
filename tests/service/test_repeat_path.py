"""What a repeat request does, as counts of work rather than timings.

An identical repeat is answered by the ``JobManager`` from the concluded job
it remembers and never reaches the pool.  A partial hit looks things up: the
worker's shared zoo graph, the fingerprint and operation count memoized on
it, the stage cache, and a store that has the run already.  Each test pins
one of those by counting the work it must no longer do (and the guard that
makes skipping it safe).
"""

import builtins
import dataclasses
import hashlib
import os
import shutil
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.core import cache as cache_module
from repro.core.cache import StageCache, graph_fingerprint
from repro.core.compiler import FPSACompiler
from repro.errors import DeadlineExceededError, InvalidRequestError
from repro.graph.ops import Dense
from repro.models import zoo
from repro.models.zoo import BENCHMARK_MODELS, build_model, shared_model
from repro.perf.analytic import pipeline_depth
from repro.service import (
    ArtifactStore,
    CompileRequest,
    CompileResponse,
    JobManager,
    JobState,
    ResultSummary,
    ServingRuntime,
    serve_request,
)
from repro.service import jobs as jobs_module
from repro.synthesizer.coreop import GRAPH_INPUT, GRAPH_OUTPUT, CoreOpGraph, WeightGroup
from repro.synthesizer.synthesizer import synthesize


@pytest.fixture
def fresh_zoo(monkeypatch):
    """An empty shared-graph table, as a newly started worker has."""
    monkeypatch.setattr(zoo, "_SHARED_GRAPHS", {})


def _count_calls(monkeypatch, owner, name, counted=lambda *args: True):
    """Replace ``owner.name`` by a counting pass-through; returns the calls."""
    real = getattr(owner, name)
    calls = []

    def spy(*args, **kwargs):
        if counted(*args):
            calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, spy)
    return calls


# ---------------------------------------------------------------------------
# the shared zoo graph
# ---------------------------------------------------------------------------

class TestSharedGraph:
    def test_two_requests_build_and_hash_the_model_once(self, monkeypatch, fresh_zoo):
        builds = []
        builder = zoo.MODEL_BUILDERS["ResNet152"]
        monkeypatch.setitem(
            zoo.MODEL_BUILDERS, "ResNet152", lambda: builds.append(1) or builder()
        )
        # graph_fingerprint hashes (name, node tuple, node tuple, ...)
        hashes = _count_calls(
            monkeypatch, cache_module, "fingerprint",
            counted=lambda *parts: parts[0] == "ResNet152" and isinstance(parts[1], tuple),
        )
        cache = StageCache()
        request = CompileRequest(model="ResNet152")
        first = serve_request(request, cache=cache)
        second = serve_request(request, cache=cache)
        assert first.ok and second.ok
        assert len(builds) == 1
        assert len(hashes) == 1
        assert second.result.graph is first.result.graph
        assert second.response.summary == first.response.summary
        assert second.response.timings.cache_hits == 2

    def test_build_model_still_hands_out_fresh_graphs(self, fresh_zoo):
        assert build_model("LeNet") is not build_model("LeNet")
        assert shared_model("LeNet") is shared_model("LeNet")
        assert shared_model("LeNet") is not build_model("LeNet")

    def test_unknown_model_is_still_a_typed_error(self, fresh_zoo):
        response = serve_request(CompileRequest(model="NotANetwork")).response
        assert response.error.code == "unknown_model"
        assert zoo._SHARED_GRAPHS == {}

    def test_mutated_shared_graph_is_rebuilt(self, fresh_zoo):
        cache = StageCache()
        request = CompileRequest(model="LeNet", duplication_degree=2)
        before = serve_request(request, cache=cache)
        shared = before.result.graph
        assert shared is shared_model("LeNet")
        stale_hash, stale_ops = graph_fingerprint(shared), shared.total_ops()

        shared.add("intruder", Dense(out_features=3), [shared.output_nodes()[0].name])
        # the memos on the mutated graph itself can never be served stale ...
        assert graph_fingerprint(shared) != stale_hash
        assert shared.total_ops() > stale_ops
        # ... and the next request gets a rebuilt graph, not the mutated one
        after = serve_request(request, cache=cache)
        assert after.result.graph is not shared
        assert "intruder" not in after.result.graph
        assert shared_model("LeNet") is after.result.graph
        fresh = FPSACompiler(cache=False).compile(
            build_model("LeNet"), duplication_degree=2
        )
        assert after.response.summary == ResultSummary.from_result(fresh)
        assert after.response.summary == before.response.summary


# ---------------------------------------------------------------------------
# the perf model's inputs
# ---------------------------------------------------------------------------

class TestOpCountOncePerGraphVersion:
    def test_two_compiles_count_every_node_once(self, monkeypatch):
        graph = build_model("LeNet")
        calls = [
            _count_calls(monkeypatch, op_class, "op_count")
            for op_class in {type(node.op) for node in graph.nodes()}
        ]
        compiler = FPSACompiler(cache=StageCache())
        first = compiler.compile(graph)  # runs both perf and bounds
        assert first.performance is not None and first.bounds is not None
        assert sum(len(c) for c in calls) == len(graph)
        compiler.compile(graph, duplication_degree=4)
        assert sum(len(c) for c in calls) == len(graph)

    def test_add_invalidates_the_count(self):
        graph = build_model("MLP-500-100")
        before = graph.total_ops()
        tail = graph.output_nodes()[0].name
        graph.add("extra", Dense(out_features=7), [tail])
        assert graph.total_ops() == before + Dense(out_features=7).op_count(
            [graph.node(tail).output]
        )


def _group(name: str) -> WeightGroup:
    return WeightGroup(name=name, source=name, kind="matmul", rows=4, cols=4, reuse=1)


def _diamond() -> CoreOpGraph:
    coreops = CoreOpGraph("diamond")
    for name in "abcd":
        coreops.add_group(_group(name))
    coreops.add_edge(GRAPH_INPUT, "a", 4)
    for src, dst in (("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")):
        coreops.add_edge(src, dst, 4)
    coreops.add_edge("d", GRAPH_OUTPUT, 4)
    return coreops


def _boundary_only() -> CoreOpGraph:
    coreops = CoreOpGraph("boundary")
    for name in "ab":
        coreops.add_group(_group(name))
        coreops.add_edge(GRAPH_INPUT, name, 4)
        coreops.add_edge(name, GRAPH_OUTPUT, 4)
    return coreops


#: recorded at commit 1e4fa78, where ``pipeline_depth`` asked the graph for
#: the predecessors of every group
ZOO_PIPELINE_DEPTH = {
    "MLP-500-100": 5,
    "LeNet": 11,
    "CIFAR-VGG17": 41,
    "AlexNet": 26,
    "VGG16": 41,
    "GoogLeNet": 53,
    "ResNet152": 305,
}


class TestPipelineDepth:
    @pytest.fixture(autouse=True)
    def no_per_group_edge_scans(self, monkeypatch):
        def scanned(self, name):
            raise AssertionError(f"pipeline_depth scanned the edges for {name!r}")

        monkeypatch.setattr(CoreOpGraph, "predecessors", scanned)

    def test_zoo_literals_cover_the_benchmark_models(self):
        assert set(ZOO_PIPELINE_DEPTH) == set(BENCHMARK_MODELS)

    @pytest.mark.parametrize("model", sorted(ZOO_PIPELINE_DEPTH))
    def test_zoo_models(self, model):
        assert pipeline_depth(synthesize(build_model(model))) == ZOO_PIPELINE_DEPTH[model]

    def test_diamond(self):
        assert pipeline_depth(_diamond()) == 3

    def test_boundary_edges_only(self):
        assert pipeline_depth(_boundary_only()) == 1


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------

@pytest.fixture
def response():
    return serve_request(CompileRequest(model="MLP-500-100")).response


@pytest.fixture
def writes(monkeypatch):
    """Every file opened for writing and every ``os.replace``, as
    ``("open", name, mode)`` / ``("replace", src, dst)`` entries.
    ``write_text`` fails outright: it opens the final name in place."""
    log = []
    real_open, real_replace = builtins.open, os.replace

    def spy_open(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            log.append(("open", Path(file).name, mode))
        return real_open(file, mode, *args, **kwargs)

    def spy_replace(src, dst, **kwargs):
        log.append(("replace", Path(src).name, Path(dst).name))
        return real_replace(src, dst, **kwargs)

    def no_write_text(self, *args, **kwargs):
        raise AssertionError(f"{self.name} written in place")

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(os, "replace", spy_replace)
    monkeypatch.setattr(Path, "write_text", no_write_text)
    return log


class TestRepeatSave:
    def test_second_save_of_an_equal_response_writes_nothing(
        self, tmp_path, response, writes
    ):
        store = ArtifactStore(tmp_path)
        run_id = store.save(response)
        assert writes  # the first save went to disk
        writes.clear()
        assert store.save(response) == run_id
        assert writes == []
        assert store.load(run_id, verify=True) == response

    def test_repeat_keeps_the_volatile_fields_of_the_first_save(self, tmp_path):
        cache = StageCache()
        request = CompileRequest(model="MLP-500-100")
        cold = serve_request(request, cache=cache).response
        warm = serve_request(request, cache=cache).response
        assert cold.timings.cache_hits != warm.timings.cache_hits
        store = ArtifactStore(tmp_path)
        assert store.save(cold) == store.save(warm)
        assert store.load(store.run_id_for(warm)).timings == cold.timings

    def test_no_run_file_is_written_under_its_final_name(self, tmp_path, writes):
        store = ArtifactStore(tmp_path)
        served = serve_request(CompileRequest(model="MLP-500-100", emit_bitstream=True))
        store.save(served.response, bitstream_json=served.result.bitstream.to_json())
        opened = [entry[1:] for entry in writes if entry[0] == "open"]
        replaced = [entry[1:] for entry in writes if entry[0] == "replace"]
        run_files = {"response.json", "bitstream.json"}
        assert not run_files & {name for name, _ in opened}
        assert {dst for _, dst in replaced} == run_files
        assert all(src == dst + ".tmp" for src, dst in replaced)
        # the index is appended to, never opened to be rewritten
        assert [entry for entry in opened if entry[0].startswith("index")] == [
            ("index.jsonl", "a+b")
        ]
        # nothing but the final files is left behind
        run_dir = store.runs_root / store.run_id_for(served.response)
        assert {p.name for p in run_dir.iterdir()} == run_files
        assert {p.name for p in tmp_path.iterdir()} == {"runs", "index.jsonl", ".index.lock"}

    def test_another_instance_takes_the_guarded_path(self, tmp_path, response, writes):
        first = ArtifactStore(tmp_path)
        run_id = first.save(response)
        second = ArtifactStore(tmp_path)
        assert [record.run_id for record in second.list_runs()] == [run_id]
        created_at = second.list_runs()[0].created_at
        writes.clear()
        assert second.save(response) == run_id
        assert ("replace", "response.json.tmp", "response.json") in writes
        assert ("open", "index.jsonl", "a+b") in writes
        assert len((tmp_path / "index.jsonl").read_bytes().splitlines()) == 2
        assert second.list_runs()[0].created_at == created_at  # first write wins
        writes.clear()
        assert second.save(response) == run_id
        assert writes == []

    def test_bitstream_arriving_later_is_written(self, tmp_path, writes):
        store = ArtifactStore(tmp_path)
        served = serve_request(CompileRequest(model="MLP-500-100", emit_bitstream=True))
        bitstream = served.result.bitstream.to_json()
        run_id = store.save(served.response)
        assert not store.list_runs()[0].has_bitstream
        assert store.load_bitstream(run_id) is None
        assert store.save(served.response, bitstream_json=bitstream) == run_id
        assert store.list_runs()[0].has_bitstream
        assert store.load_bitstream(run_id) == bitstream
        writes.clear()
        # now both repeats are no-ops, and has_bitstream stays set
        store.save(served.response, bitstream_json=bitstream)
        store.save(served.response)
        assert writes == []
        assert store.list_runs()[0].has_bitstream

    def test_a_resave_is_one_stat_of_a_string_path(self, tmp_path, response, monkeypatch):
        store = ArtifactStore(tmp_path)
        run_id = store.save(response)
        stats = _count_calls(monkeypatch, os, "stat")
        in_pathlib = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_globals.get("__name__", "").startswith("pathlib"):
                in_pathlib.append(frame.f_code.co_name)

        outer = sys.getprofile()
        sys.setprofile(profile)
        try:
            assert store.save(response) == run_id
        finally:
            sys.setprofile(outer)
        assert in_pathlib == []
        assert [type(args[0]) for args in stats] == [str]

    def test_removed_run_directory_is_written_again(self, tmp_path, response, writes):
        store = ArtifactStore(tmp_path)
        run_id = store.save(response)
        shutil.rmtree(store.runs_root / run_id)
        writes.clear()
        assert store.save(response) == run_id
        assert ("replace", "response.json.tmp", "response.json") in writes
        assert store.load(run_id, verify=True) == response

    def test_removed_bitstream_file_is_written_again(self, tmp_path):
        store = ArtifactStore(tmp_path)
        served = serve_request(CompileRequest(model="MLP-500-100", emit_bitstream=True))
        bitstream = served.result.bitstream.to_json()
        run_id = store.save(served.response, bitstream_json=bitstream)
        (store.runs_root / run_id / "bitstream.json").unlink()
        store.save(served.response)  # no bitstream asked for: nothing to restore
        assert store.load_bitstream(run_id) is None
        store.save(served.response, bitstream_json=bitstream)
        assert store.load_bitstream(run_id) == bitstream

    def test_threads_saving_distinct_and_equal_responses(self, tmp_path, response):
        # two savers, 50 runs of their own and 50 equal ones each; a lost
        # index update would drop a distinct id, a torn no-op check would
        # add or lose the shared one
        def tagged(tag: str):
            request = dataclasses.replace(response.request, tags={"saver": tag})
            return dataclasses.replace(response, request=request)

        shared = [tagged(f"shared-{i}") for i in range(50)]
        own = {name: [tagged(f"{name}-{i}") for i in range(50)] for name in ("a", "b")}
        store = ArtifactStore(tmp_path)
        errors = []

        def saver(name: str) -> None:
            try:
                for mine, ours in zip(own[name], shared):
                    store.save(mine)
                    store.save(ours)
                    store.save(ours)
            except Exception as exc:  # noqa: BLE001 - reported by the assert below
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=saver, args=(name,)) for name in own]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert errors == []
        expected = {store.run_id_for(r) for r in shared + own["a"] + own["b"]}
        assert len(expected) == 150
        assert {record.run_id for record in store.list_runs()} == expected
        assert set(store._indexed) == expected

    def test_the_500th_new_save_writes_as_many_index_bytes_as_the_1st(
        self, tmp_path, response, monkeypatch
    ):
        # every run id has 16 characters, and with the clock held still
        # every index line has the same length: a save that rewrote the
        # index would write ~500 lines' worth by the end
        monkeypatch.setattr(time, "time", lambda: 1792000000.0)
        written = []
        real_open = builtins.open

        class Counted:
            def __init__(self, handle):
                self.handle = handle

            def write(self, data):
                written.append(len(data))
                return self.handle.write(data)

            def __getattr__(self, name):
                return getattr(self.handle, name)

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                self.handle.close()

        def spy_open(file, mode="r", *args, **kwargs):
            handle = real_open(file, mode, *args, **kwargs)
            if Path(file).name.startswith("index") and set(mode) & set("wax+"):
                return Counted(handle)
            return handle

        monkeypatch.setattr(builtins, "open", spy_open)
        store = ArtifactStore(tmp_path)
        per_save = []
        for i in range(500):
            written.clear()
            request = dataclasses.replace(response.request, tags={"i": str(i)})
            store.save(dataclasses.replace(response, request=request))
            per_save.append(sum(written))
        assert per_save[0] > 0
        assert per_save[-1] == per_save[0]
        assert len(store) == 500


# ---------------------------------------------------------------------------
# the job manager: an identical request is answered where it arrives
# ---------------------------------------------------------------------------

def _point(i: int = 0, **fields) -> CompileRequest:
    """Distinct fingerprints of one cheap compile (the seed is in them)."""
    return CompileRequest(model="MLP-500-100", seed=i, **fields)


class TestAnsweredFromTheConcludedJob:
    @pytest.fixture
    def pool(self, manual_executor):
        """Futures stay pending (so ``cancel`` succeeds) until the test ends one."""
        manual_executor.pending = True
        return manual_executor

    def serve(self, manager, pool, request):
        """Submit, let a compile that reached the pool run, return the response."""
        job_id = manager.submit(request)
        pool.complete_all()
        return manager.result(job_id, timeout=0)

    def test_repeats_reach_the_pool_once(self, pool):
        manager = JobManager(pool=pool)
        first = self.serve(manager, pool, _point())
        for i in range(5):
            job_id = manager.submit(_point(tags={"i": str(i)}))
            info = manager.status(job_id)  # done before submit returned
            assert info.state == JobState.DONE and info.coalesced
            response = manager.result(job_id, timeout=0)
            assert response.request.tags == {"i": str(i)}
            assert (response.summary, response.timings) == (first.summary, first.timings)
        assert len(pool.submitted) == 1
        stats = manager.stats
        assert (stats.submitted, stats.coalesced, stats.completed) == (6, 5, 6)

    def test_an_identical_repeat_is_its_twin_and_hashes_nothing(
        self, pool, tmp_path, monkeypatch
    ):
        manager = JobManager(pool=pool, store=ArtifactStore(tmp_path))
        request = _point()
        first = self.serve(manager, pool, request)
        assert first.request is request  # built around the submitted request
        work = [_count_calls(monkeypatch, hashlib, "sha256")] + [
            _count_calls(monkeypatch, cls, "to_dict") for cls in (CompileRequest, CompileResponse)
        ]
        for _ in range(3):
            assert self.serve(manager, pool, request) is first
        assert work == [[], [], []]
        # a tagged repeat is a copy under its own request, and its own run
        tagged = self.serve(manager, pool, _point(tags={"who": "b"}))
        assert tagged is not first and tagged.summary == first.summary
        assert ArtifactStore.run_id_for(tagged) != ArtifactStore.run_id_for(first)
        assert len(pool.submitted) == 1

    def test_a_remembered_answer_allocates_no_event(self, pool, monkeypatch):
        manager = JobManager(pool=pool)
        first = self.serve(manager, pool, _point())
        events = _count_calls(monkeypatch, threading, "Event")
        conditions = _count_calls(monkeypatch, threading, "Condition")
        for tags in ({}, {"who": "b"}):
            job_id = manager.submit(_point(tags=tags))
            assert manager.status(job_id).state == JobState.DONE
            assert manager.result(job_id, timeout=0).summary == first.summary
        assert (events, conditions) == ([], [])

    def test_the_very_request_is_not_compared(self, pool, monkeypatch):
        manager = JobManager(pool=pool)
        request = _point()
        first = self.serve(manager, pool, request)
        compared = _count_calls(monkeypatch, CompileRequest, "__eq__")
        assert self.serve(manager, pool, request) is first
        assert compared == []
        # an equal request in another object is compared, and is answered
        # with the very response too
        assert self.serve(manager, pool, _point()) is first
        assert len(compared) == 1

    def test_observers_never_see_a_remembered_answer_unfinished(self, pool):
        manager = JobManager(pool=pool)
        request = _point()
        self.serve(manager, pool, request)
        stop = threading.Event()
        seen = []

        def observe() -> None:
            while not stop.is_set():
                seen.extend(info for info in manager.jobs() if info.state != JobState.DONE)
                try:
                    manager.wait_all(timeout=0)
                except DeadlineExceededError as exc:
                    seen.append(exc)
                manager.shutdown()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            observer = threading.Thread(target=observe)
            observer.start()
            for _ in range(1000):
                manager.submit(request)
            stop.set()
            observer.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not observer.is_alive()
        assert seen == []
        assert len(manager.wait_all(timeout=0)) == 1001

    def test_only_the_last_finished_jobs_are_held(self, pool, monkeypatch):
        monkeypatch.setattr(jobs_module, "REMEMBERED_JOBS", 2)
        manager = JobManager(pool=pool)
        in_flight = manager.submit(_point(0))
        finished = []
        for i in (1, 2, 3):
            finished.append(manager.submit(_point(i)))
            pool.complete_last()
        finished.append(manager.submit(_point(3)))  # answered at submit
        assert len(pool.submitted) == 4
        # the first two to finish are forgotten; an in-flight job never is
        assert [info.job_id for info in manager.jobs()] == [in_flight, *finished[2:]]
        for job_id in finished[:2]:
            with pytest.raises(InvalidRequestError, match="unknown job id"):
                manager.status(job_id)
            with pytest.raises(InvalidRequestError, match="unknown job id"):
                manager.result(job_id, timeout=0)
        assert manager.status(in_flight).state == JobState.QUEUED
        pool.complete_all()
        assert manager.result(in_flight, timeout=0).ok
        assert [info.job_id for info in manager.jobs()] == [in_flight, finished[3]]
        assert len(manager.wait_all(timeout=0)) == 2
        # the counters count every job, held or forgotten
        assert (manager.stats.submitted, manager.stats.completed) == (5, 5)

    def test_a_batch_past_the_bound_is_read_whole(self, pool, monkeypatch):
        # room for 2 finished jobs; both compiles end only once all five
        # followers are attached, so each fans out past the bound at once
        monkeypatch.setattr(jobs_module, "REMEMBERED_JOBS", 2)
        manager = JobManager(pool=pool)
        batch = [_point(n % 2, tags={"n": str(n)}) for n in range(7)]
        attached = threading.Event()
        submit = manager._submit

        def submit_and_count(request):
            job = submit(request)
            if manager.stats.coalesced == 5:
                attached.set()  # the fifth follower is attached
            return job

        manager._submit = submit_and_count

        def complete_once_attached() -> None:
            attached.wait(10)
            pool.complete_all()

        completer = threading.Thread(target=complete_once_attached)
        completer.start()
        try:
            responses = manager.serve_batch(batch, timeout=10)
        finally:
            completer.join()
        assert [response.request for response in responses] == batch
        assert all(response.ok for response in responses)
        assert len(pool.submitted) == 2 and len(manager.jobs()) == 2
        # again, each answered at submit
        assert [r.request for r in manager.serve_batch(batch, timeout=0)] == batch
        assert len(pool.submitted) == 2

    def test_use_cache_false_compiles_every_time(self, pool):
        manager = JobManager(pool=pool)
        for _ in range(3):
            assert self.serve(manager, pool, _point(use_cache=False)).ok
        assert len(pool.submitted) == 3
        assert manager.stats.coalesced == 0

    def test_coalesce_false_compiles_every_time(self, pool):
        manager = JobManager(pool=pool, coalesce=False)
        for _ in range(3):
            assert self.serve(manager, pool, _point()).ok
        assert len(pool.submitted) == 3

    @pytest.mark.parametrize("code", ["unknown_model", "cancelled", "transient_io"])
    def test_an_error_is_never_remembered(self, pool, code):
        manager = JobManager(pool=pool)
        request = (
            CompileRequest(model="NotANetwork", max_retries=0)
            if code == "unknown_model"
            else _point(max_retries=0)
        )
        job_id = manager.submit(request)
        if code == "cancelled":
            assert manager.cancel(job_id)
        elif code == "transient_io":  # retriable, and out of budget
            pool.submitted[-1][2].set_exception(OSError("disk went away"))
        pool.complete_all()
        assert manager.result(job_id, timeout=0).error.code == code
        manager.submit(request)
        assert len(pool.submitted) == 2
        assert manager.stats.coalesced == 0

    def test_a_job_that_returned_a_bitstream_is_not_remembered(self, pool, tmp_path):
        # the response does not carry the artifact: the store gets it from
        # the worker, so a removed bitstream.json needs another compile
        store = ArtifactStore(tmp_path)
        manager = JobManager(pool=pool, store=store)
        request = _point(emit_bitstream=True)
        run_id = store.run_id_for(self.serve(manager, pool, request))
        bitstream = store.load_bitstream(run_id)
        assert bitstream is not None
        (store.runs_root / run_id / "bitstream.json").unlink()
        assert self.serve(manager, pool, request).ok
        assert len(pool.submitted) == 2
        assert store.load_bitstream(run_id) == bitstream

    def test_the_least_recently_used_job_is_forgotten(self, pool, monkeypatch):
        monkeypatch.setattr(jobs_module, "REMEMBERED_JOBS", 3)
        manager = JobManager(pool=pool)
        for i in (0, 1, 2, 0, 3):  # the repeat of 0 makes 1 the oldest
            self.serve(manager, pool, _point(i))
        assert len(pool.submitted) == 4
        for i, compiles in ((0, 4), (2, 4), (3, 4), (1, 5)):
            self.serve(manager, pool, _point(i))
            assert len(pool.submitted) == compiles, i

    def test_an_in_flight_job_is_never_the_one_forgotten(self, pool, monkeypatch):
        monkeypatch.setattr(jobs_module, "REMEMBERED_JOBS", 2)
        manager = JobManager(pool=pool)
        oldest = manager.submit(_point(0))
        for i in (1, 2, 3):
            manager.submit(_point(i))
            pool.complete_last()
        follower = manager.submit(_point(0))
        assert len(pool.submitted) == 4
        assert manager.status(follower).state == JobState.QUEUED
        pool.complete_all()
        assert manager.result(oldest, timeout=0).ok
        assert manager.result(follower, timeout=0).ok
        # the bound counts concluded compiles only, and 0 was in flight at
        # each eviction: 1 was evicted at the third conclude (3's), and 2
        # when 0 concluded, so 3 and 0 are answered and 2 compiles again
        for i, compiles in ((3, 4), (0, 4), (2, 5)):
            self.serve(manager, pool, _point(i))
            assert len(pool.submitted) == compiles, i

    def test_the_bound_counts_only_the_concluded_compiles(self, pool, monkeypatch):
        # room for 2 concluded compiles while 2 others are in flight: the
        # third to conclude is remembered, not evicted at once
        monkeypatch.setattr(jobs_module, "REMEMBERED_JOBS", 2)
        manager = JobManager(pool=pool)
        in_flight = [manager.submit(_point(i)) for i in (0, 1)]
        finished = manager.submit(_point(2))
        pool.complete_last()
        assert manager.result(finished, timeout=0).ok
        repeat = manager.submit(_point(2))  # answered at submit
        assert manager.result(repeat, timeout=0).ok
        assert len(pool.submitted) == 3
        assert [manager.status(job_id).state for job_id in in_flight] == [JobState.QUEUED] * 2

    def test_a_compile_that_outlived_its_deadline_is_remembered(self, pool):
        manager = JobManager(pool=pool)
        late = manager.submit(_point(deadline_s=0.01))
        assert manager.result(late, timeout=60).error.code == "deadline_exceeded"
        pool.complete_all()  # dropped for the job that gave up, kept for the next
        assert self.serve(manager, pool, _point()).ok
        assert len(pool.submitted) == 1

    def test_answered_jobs_take_no_slot_and_arm_no_timer(self, pool, monkeypatch):
        manager = JobManager(pool=pool, max_queue_depth=1)
        self.serve(manager, pool, _point())
        manager.submit(_point(1))  # holds the only slot
        timers = _count_calls(monkeypatch, threading, "Timer")
        job_id = manager.submit(_point(deadline_s=60.0))
        assert manager.status(job_id).state == JobState.DONE
        assert timers == []
        assert manager.stats.rejected == 0

    def test_no_window_between_concluding_and_remembering(self, pool):
        # the earliest a repeat can arrive after its twin concluded: from
        # the store, which the publish of a follower's copy calls before
        # anyone wakes (the worker saved the primary's own answer)
        repeats = []

        class ResubmittingStore:
            def save(self, response, bitstream_json=None):
                if response.request.tags and not repeats:
                    repeats.append(manager.submit(_point()))

        manager = JobManager(pool=pool, store=ResubmittingStore())
        jobs = [manager.submit(_point()), manager.submit(_point(tags={"who": "b"}))]
        pool.complete_all()
        assert all(manager.result(job_id, timeout=0).ok for job_id in jobs)
        assert manager.status(repeats[0]).coalesced
        assert manager.result(repeats[0], timeout=0).ok
        assert len(pool.submitted) == 1

    def test_clients_racing_the_bound_lose_no_job(self, monkeypatch):
        # 6 clients on 2 pool threads, 4 points, room for 2: entries are
        # attached to, answered from, forgotten and re-made concurrently;
        # room for 2 finished jobs too, yet each client reads the job it holds
        monkeypatch.setattr(jobs_module, "REMEMBERED_JOBS", 2)
        compiles = _count_calls(monkeypatch, jobs_module, "_execute_job")
        expected = [serve_request(_point(i), cache=False).response.summary for i in range(4)]
        wrong = []

        def client(offset: int) -> None:
            for n in range(40):
                i = (offset + n * n) % 4
                response = manager.serve(_point(i), timeout=60)
                if response.summary != expected[i]:
                    wrong.append(response)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            with ThreadPoolExecutor(max_workers=2) as pool, JobManager(pool=pool) as manager:
                threads = [threading.Thread(target=client, args=(k,)) for k in range(6)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert wrong == []
        stats = manager.stats
        assert stats.submitted == stats.completed == 240
        assert len(compiles) + stats.coalesced == 240
        assert len(manager._shared) <= 2 and stats.coalesced > 0
        assert len(manager.jobs()) == 2


def test_one_point_one_run_id_through_a_serving_runtime(tmp_path):
    store = ArtifactStore(tmp_path / "store")
    points = [CompileRequest(model="LeNet", duplication_degree=d) for d in (1, 2, 4)]
    with ServingRuntime(
        max_workers=2, shared_cache_dir=str(tmp_path / "shared"), store=store
    ) as runtime:
        for _ in range(5):
            for request in points:
                direct = serve_request(request, cache=False).response
                assert runtime.serve(request, timeout=60).summary == direct.summary
        assert len(store) == 3
        assert runtime.stats()["coalesced"] == 12
        # tags are in the address: the same point, asked by somebody else
        tagged = dataclasses.replace(points[0], tags={"who": "b"})
        response = runtime.serve(tagged, timeout=60)
        assert runtime.stats()["coalesced"] == 13
    assert len(store) == 4
    assert store.load(store.run_id_for(response)).request == tagged
