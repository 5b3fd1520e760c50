"""A worker stores the answer it compiled.

``_execute_job`` saves its response (and bitstream) into the manager's
``ArtifactStore``, which reaches a process worker as its root, and returns
the run id in place of the bitstream JSON.  The manager saves only the
answers it makes itself.  The thread-pool tests share one store instance
between "worker" and manager; the process-pool tests check that the runs a
worker writes are the ones an in-process save would write.
"""

from __future__ import annotations

import dataclasses
import json
import os
import pickle
import threading
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from repro.config_gen.bitstream import FPSABitstream
from repro.core.cache import StageCache
from repro.service import (
    ArtifactStore,
    CompileRequest,
    CompileResponse,
    JobManager,
    ServingRuntime,
    serve_request,
)
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


def _stable(response_json: dict) -> dict:
    """A stored response less its volatile part (``WireRecord.volatile``)."""
    return CompileResponse.from_dict(response_json).stable_dict(response_json)


def _runs(store: ArtifactStore) -> dict[str, tuple]:
    """run id -> (has_bitstream, stable response.json, bitstream.json)."""
    return {
        record.run_id: (
            record.has_bitstream,
            _stable(json.loads((store.runs_root / record.run_id / "response.json").read_text())),
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


def _counting_submits(manager: JobManager) -> list:
    """Record every job ``manager`` hands its pool."""
    submitted = []
    submit = manager.pool.submit
    manager.pool.submit = lambda *args: submitted.append(args) or submit(*args)
    return submitted


class TestABitstreamRepeatIsALookup:
    """With a store and two process workers, a repeated ``run_pnr`` +
    ``emit_bitstream`` request is answered from the run its worker saved."""

    REQUEST = CompileRequest(model="MLP-500-100", run_pnr=True, emit_bitstream=True)

    @pytest.fixture(params=[True, False], ids=["run_pnr", "front-end"])
    def request_(self, request):
        return dataclasses.replace(self.REQUEST, run_pnr=request.param)

    def test_a_repeat_reaches_no_worker(self, store, request_):
        with JobManager(max_workers=2, store=store) as manager:
            submitted = _counting_submits(manager)
            first = manager.serve(request_, timeout=120)
            assert first.ok
            assert manager.serve(request_, timeout=120) is first
            assert (len(submitted), manager.stats.coalesced) == (1, 1)
        (run,) = store.list_runs()
        assert run.has_bitstream and run.run_id == ArtifactStore.run_id_for(first)

    def test_a_repeat_under_other_tags_copies_the_bitstream(self, store, request_):
        tagged = dataclasses.replace(request_, tags={"who": "b"})
        with JobManager(max_workers=2, store=store) as manager:
            submitted = _counting_submits(manager)
            first = manager.serve(request_, timeout=120)
            copy = manager.serve(tagged, timeout=120)
            assert (len(submitted), manager.stats.coalesced) == (1, 1)
        ids = [ArtifactStore.run_id_for(r) for r in (first, copy)]
        assert ids[0] != ids[1] and len(store) == 2
        assert all(run.has_bitstream for run in store.list_runs())
        bitstreams = [(store.runs_root / i / "bitstream.json").read_bytes() for i in ids]
        assert bitstreams[0] == bitstreams[1]
        assert store.load(ids[1], verify=True).request == tagged

    def test_repeated_batches_are_answered_from_the_store(self, store):
        requests = [
            dataclasses.replace(self.REQUEST, duplication_degree=d) for d in (1, 2, 4, 8)
        ]
        with ServingRuntime(max_workers=2, store=store) as runtime:
            submitted = _counting_submits(runtime.manager)
            rounds = [runtime.serve_batch(requests, timeout=120) for _ in range(3)]
            assert runtime.stats()["coalesced"] == 8
        assert len(submitted) == 4
        for later in rounds[1:]:
            assert all(a is b for a, b in zip(rounds[0], later, strict=True))
        assert len(store) == 4
        for response in rounds[0]:
            run_dir = store.runs_root / ArtifactStore.run_id_for(response)
            assert (run_dir / "bitstream.json").is_file()

    def test_a_failed_worker_save_is_not_remembered(self, store, monkeypatch):
        parent = os.getpid()
        write = store_module._write_atomic

        def worker_write_fails(path, text):
            if os.getpid() != parent:
                raise OSError("no space left on device")
            return write(path, text)

        # patched before the pool forks, so both workers inherit it
        monkeypatch.setattr(store_module, "_write_atomic", worker_write_fails)
        with JobManager(max_workers=2, store=store) as manager:
            submitted = _counting_submits(manager)
            for _ in range(2):
                assert manager.serve(self.REQUEST, timeout=120).ok
            # the repeat compiled again: its answer alone had no bitstream
            assert (len(submitted), manager.stats.coalesced) == (2, 0)
        assert len(store) == 0


def test_a_worker_save_encodes_the_response_once(store, monkeypatch):
    """The dict the save hashed and wrote is the one the worker returns."""
    encoded = []
    to_dict = CompileResponse.to_dict
    monkeypatch.setattr(
        CompileResponse, "to_dict", lambda self: encoded.append(1) or to_dict(self)
    )
    data, run_id, _ = jobs_module._execute_job({"model": "LeNet"}, None, StageCache(), store)
    assert len(encoded) == 1
    assert json.loads((store.runs_root / run_id / "response.json").read_text()) == data
    assert store.load(run_id, verify=True).to_dict() == data


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
    with ServingRuntime(max_workers=1, store=store) as runtime:
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
    """Byte for byte, less their volatile part: the catalogue, a bitstream
    answer and a capacity error, served through worker processes, leave the
    runs that saving the in-process answers leaves."""
    requests = [
        CompileRequest(model=model, duplication_degree=duplication, dedup=True)
        for model in CATALOGUE_MODELS
        for duplication in CATALOGUE_DUPLICATIONS
    ] + [BITSTREAM, CAPACITY_ERROR]
    served = ArtifactStore(tmp_path / "served")
    with ServingRuntime(max_workers=2, store=served) as runtime:
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
