"""A worker stores the answer it compiled.

``_execute_job`` saves its response (and bitstream) into the manager's
``ArtifactStore``, which reaches a process worker as its root, and returns
the run id in place of the bitstream JSON.  The manager saves only the
answers it makes itself.  The thread-pool tests share one store instance
between "worker" and manager; the process-pool tests check that the runs a
worker writes are the ones an in-process save would write.
"""

from __future__ import annotations

import json
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.config_gen.bitstream import FPSABitstream
from repro.core.cache import StageCache
from repro.service import ArtifactStore, CompileRequest, JobManager, ServingRuntime, serve_request
from repro.service import jobs as jobs_module
from repro.service import store as store_module

#: the ``serve_mixed`` catalogue: every zoo model at seven duplications.
CATALOGUE_MODELS = (
    "MLP-500-100", "LeNet", "CIFAR-VGG17", "AlexNet", "VGG16", "GoogLeNet", "ResNet152",
)
CATALOGUE_DUPLICATIONS = (1, 2, 4, 8, 16, 32, 64)

BITSTREAM = CompileRequest(model="MLP-500-100", emit_bitstream=True)
CAPACITY_ERROR = CompileRequest(model="MLP-500-100", pe_budget=1)


@pytest.fixture
def store(tmp_path) -> ArtifactStore:
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def thread_pool():
    """A thread pool whose ``submit`` keeps every future it hands out."""
    with ThreadPoolExecutor(max_workers=2) as pool:
        submit = pool.submit
        pool.futures = []
        pool.submit = lambda *args: pool.futures.append(submit(*args)) or pool.futures[-1]
        yield pool


def _stripped(response_json: dict) -> dict:
    """A stored response less the fields that differ from run to run."""
    timings = response_json.get("timings")
    if not timings:
        return response_json
    volatile = ("total_seconds", "cache_hits", "cache_misses")
    kept = {k: v for k, v in timings.items() if k not in volatile}
    kept["passes"] = [
        {k: v for k, v in entry.items() if k not in ("seconds", "cached")}
        for entry in timings["passes"]
    ]
    return {**response_json, "timings": kept}


def _runs(store: ArtifactStore) -> dict[str, tuple]:
    """run id -> (has_bitstream, stripped response.json, bitstream.json)."""
    return {
        record.run_id: (
            record.has_bitstream,
            _stripped(json.loads((store.runs_root / record.run_id / "response.json").read_text())),
            store.load_bitstream(record.run_id),
        )
        for record in store.list_runs()
    }


def test_a_store_crosses_the_pool_as_its_root(store):
    store.save(serve_request(CompileRequest(model="LeNet")).response)
    copy = pickle.loads(pickle.dumps(store))
    assert copy is not store and copy.root == store.root
    assert copy._indexed == {} and copy._lock is not store._lock
    # a process has one instance a root: a worker keeps what it indexed
    assert pickle.loads(pickle.dumps(store)) is copy
    assert [r.run_id for r in copy.list_runs()] == [r.run_id for r in store.list_runs()]


class TestTheBitstreamNeverCrossesThePool:
    def test_with_a_store_the_worker_writes_it(self, store, thread_pool):
        with JobManager(pool=thread_pool, store=store) as manager:
            response = manager.serve(BITSTREAM, timeout=60)
        data, run_id, emitted = thread_pool.futures[0].result()
        assert (data["status"], emitted) == ("ok", True)
        assert run_id == ArtifactStore.run_id_for(response)
        assert store.list_runs()[0].has_bitstream
        direct = serve_request(BITSTREAM).result.bitstream.to_json()
        assert store.load_bitstream(run_id) == direct

    def test_without_a_store_it_is_never_serialised(self, thread_pool, monkeypatch):
        encoded = []
        to_json = FPSABitstream.to_json
        monkeypatch.setattr(
            FPSABitstream, "to_json", lambda self, *a: encoded.append(1) or to_json(self, *a)
        )
        with JobManager(pool=thread_pool) as manager:
            assert manager.serve(BITSTREAM, timeout=60).ok
        assert thread_pool.futures[0].result()[1:] == (None, True)
        assert encoded == []

    def test_an_answer_that_emitted_one_is_not_remembered(self, store, thread_pool):
        with JobManager(pool=thread_pool, store=store) as manager:
            for _ in range(2):
                assert manager.serve(BITSTREAM, timeout=60).ok
            assert manager.stats.coalesced == 0
        assert len(thread_pool.futures) == 2
        # the second compile found its run stored and indexed, bitstream too
        assert [r.has_bitstream for r in store.list_runs()] == [True]

    def test_a_follower_under_other_tags_keeps_its_bitstream(
        self, store, thread_pool, monkeypatch
    ):
        release = threading.Event()
        serve = jobs_module.serve_request

        def held_serve(*args, **kwargs):
            release.wait(60)
            return serve(*args, **kwargs)

        monkeypatch.setattr(jobs_module, "serve_request", held_serve)
        follower = CompileRequest(model="MLP-500-100", emit_bitstream=True, tags={"who": "b"})
        with JobManager(pool=thread_pool, store=store) as manager:
            jobs = [manager.submit(BITSTREAM), manager.submit(follower)]
            assert manager.status(jobs[1]).coalesced
            release.set()
            primary, copy = (manager.result(job_id, timeout=60) for job_id in jobs)
        assert len(thread_pool.futures) == 1
        ids = [ArtifactStore.run_id_for(r) for r in (primary, copy)]
        assert ids[0] != ids[1]
        assert all(r.has_bitstream for r in store.list_runs()) and len(store) == 2
        assert store.load_bitstream(ids[1]) == store.load_bitstream(ids[0]) is not None
        assert store.load(ids[1], verify=True).request == follower


def test_a_failed_worker_save_is_only_a_warning(store, thread_pool, monkeypatch, capsys):
    def failing_write(path, text):
        raise OSError("no space left on device")

    monkeypatch.setattr(store_module, "_write_atomic", failing_write)
    with JobManager(pool=thread_pool, store=store) as manager:
        response = manager.serve(CompileRequest(model="LeNet"), timeout=60)
        assert response.ok
        assert manager.stats.retried == 0
    assert thread_pool.futures[0].result()[1] is None  # not stored
    assert "warning: failed to persist" in capsys.readouterr().err
    assert len(store) == 0


def test_the_parent_saves_only_the_answers_it_makes(store, monkeypatch):
    points = [CompileRequest(model="LeNet", duplication_degree=d) for d in (1, 2)]
    with ServingRuntime(max_workers=1, shared_cache_dir=False, store=store) as runtime:
        # the spy sees the parent's saves only: a worker's run in its own process
        saves = []
        save = ArtifactStore.save

        def spy(self, response, *args, **kwargs):
            saves.append(response)
            return save(self, response, *args, **kwargs)

        monkeypatch.setattr(ArtifactStore, "save", spy)
        cold = runtime.serve_batch(points, timeout=120)
        assert saves == []  # the worker stored them
        lines = (store.root / "index.jsonl").read_bytes().count(b"\n")
        assert runtime.serve_batch(points, timeout=120) == cold
        assert saves == cold  # a repeat's save is the parent's: one stat each
        assert (store.root / "index.jsonl").read_bytes().count(b"\n") == lines
        tagged = CompileRequest(model="LeNet", tags={"who": "b"})
        assert runtime.serve(tagged, timeout=120).request == tagged
        assert saves[-1].request == tagged
    assert len(store) == 3


def test_worker_written_runs_are_the_in_process_saves(tmp_path):
    """Byte for byte, less the volatile timings: the catalogue, a bitstream
    answer and a capacity error, served through worker processes, leave the
    runs that saving the in-process answers leaves."""
    requests = [
        CompileRequest(model=model, duplication_degree=duplication, dedup=True)
        for model in CATALOGUE_MODELS
        for duplication in CATALOGUE_DUPLICATIONS
    ] + [BITSTREAM, CAPACITY_ERROR]
    served = ArtifactStore(tmp_path / "served")
    with ServingRuntime(max_workers=2, shared_cache_dir=False, store=served) as runtime:
        responses = runtime.serve_batch(requests, timeout=600)
    assert [r.ok for r in responses[-2:]] == [True, False]
    assert responses[-1].error.code == "capacity_error"

    direct = ArtifactStore(tmp_path / "direct")
    cache = StageCache()
    for request in requests:
        answer = serve_request(request, cache=cache)
        bitstream = answer.result.bitstream if answer.result is not None else None
        direct.save(answer.response, None if bitstream is None else bitstream.to_json())

    runs = _runs(served)
    assert len(runs) == len(requests)
    assert runs == _runs(direct)
    assert sorted(runs) == sorted(ArtifactStore.run_id_for(r) for r in responses)
    assert sum(has_bitstream for has_bitstream, _, _ in runs.values()) == 1
    assert not any(Path(served.root).glob("runs/*/*.tmp"))
