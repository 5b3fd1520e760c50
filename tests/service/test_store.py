"""Tests of the content-addressed ArtifactStore."""

import dataclasses
import json
import multiprocessing
import shutil
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import pytest

from repro.cli import main
from repro.core.cache import StageCache
from repro.errors import InvalidRequestError, VerificationError
from repro.service import (
    ArtifactStore,
    CompileRequest,
    FPSAClient,
    serve_request,
)


#: a store written before the index was a log, at commit 18c041f: a
#: whole-file ``index.json`` and a ``request.json`` beside every response
LEGACY_STORE = Path(__file__).parent / "legacy_store"

#: runs saved at commit a601d69, when an id still hashed the cache counters
#: that have a default and a P&R summary's stage seconds: MLP-500-100 with
#: ``run_pnr`` (cold), and MLP-500-100 d2 seed 0 after an eviction
#: (``StageCache(max_entries=1)``)
COUNTED_STORE = Path(__file__).parent / "pre_volatile_store"
COUNTED_PNR, COUNTED_EVICTION = "0493ae54d0d691f2", "f4fe7183a8fc5d57"


@pytest.fixture
def response():
    return serve_request(CompileRequest(model="MLP-500-100")).response


def _tagged(response, **tags):
    return dataclasses.replace(
        response, request=dataclasses.replace(response.request, tags=tags)
    )


def _save_fifty(root: str, saver: str) -> list[str]:
    """Process worker: 50 runs of its own into a store root it shares."""
    store = ArtifactStore(root)
    response = serve_request(CompileRequest(model="MLP-500-100")).response
    return [store.save(_tagged(response, saver=saver, i=str(i))) for i in range(50)]


class TestSaveLoad:
    def test_save_and_reload(self, tmp_path, response):
        store = ArtifactStore(tmp_path)
        run_id = store.save(response)
        assert run_id in store
        assert len(store) == 1
        assert store.load(run_id) == response

    def test_content_addressing_dedupes(self, tmp_path, response):
        store = ArtifactStore(tmp_path)
        assert store.save(response) == store.save(response)
        assert len(store) == 1

    def test_content_addressing_ignores_cache_state(self, tmp_path):
        # the same request served cold and warm (different cache hit/miss
        # counters and pass timings) must land on the same run directory
        from repro.core.cache import StageCache

        cache = StageCache()
        request = CompileRequest(model="MLP-500-100", duplication_degree=2)
        cold = serve_request(request, cache=cache).response
        warm = serve_request(request, cache=cache).response
        assert cold.timings.cache_hits != warm.timings.cache_hits
        store = ArtifactStore(tmp_path)
        assert store.save(cold) == store.save(warm)
        assert len(store) == 1

    def test_distinct_requests_get_distinct_runs(self, tmp_path):
        store = ArtifactStore(tmp_path)
        a = serve_request(CompileRequest(model="MLP-500-100")).response
        b = serve_request(CompileRequest(model="MLP-500-100", duplication_degree=2)).response
        assert store.save(a) != store.save(b)
        assert len(store) == 2

    def test_bitstream_persisted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        served = serve_request(
            CompileRequest(model="MLP-500-100", emit_bitstream=True)
        )
        bitstream = served.result.bitstream.to_json()
        run_id = store.save(served.response, bitstream_json=bitstream)
        stored = store.load_bitstream(run_id)
        assert stored == bitstream
        assert json.loads(stored)["model"] == "MLP-500-100"

    def test_missing_bitstream_is_none(self, tmp_path, response):
        store = ArtifactStore(tmp_path)
        assert store.load_bitstream(store.save(response)) is None

    def test_unknown_run_rejected(self, tmp_path):
        store = ArtifactStore(tmp_path)
        with pytest.raises(InvalidRequestError):
            store.load("no-such-run")

    def test_error_responses_are_also_persisted(self, tmp_path):
        store = ArtifactStore(tmp_path)
        failed = serve_request(CompileRequest(model="MLP-500-100", pe_budget=1)).response
        run_id = store.save(failed)
        assert store.load(run_id).error.code == "capacity_error"
        assert store.list_runs(status="error")[0].run_id == run_id


class TestIndex:
    def test_list_runs_filters(self, tmp_path):
        store = ArtifactStore(tmp_path)
        store.save(serve_request(CompileRequest(model="MLP-500-100")).response)
        store.save(serve_request(CompileRequest(model="LeNet")).response)
        assert {r.model for r in store.list_runs()} == {"MLP-500-100", "LeNet"}
        assert [r.model for r in store.list_runs(model="LeNet")] == ["LeNet"]
        assert store.latest("LeNet").model == "LeNet"
        assert store.latest("VGG16") is None

    def test_index_survives_reopen(self, tmp_path, response):
        run_id = ArtifactStore(tmp_path).save(response)
        reopened = ArtifactStore(tmp_path)
        assert run_id in reopened
        assert reopened.load(run_id) == response


class TestAppendOnlyIndex:
    def test_a_torn_last_line_is_skipped_and_never_continued(self, tmp_path, response):
        store = ArtifactStore(tmp_path)
        first = store.save(response)
        index = tmp_path / "index.jsonl"
        line = index.read_bytes()
        torn = line[: len(line) // 2]
        with open(index, "ab") as handle:  # a crash halfway through an append
            handle.write(torn)
        assert [record.run_id for record in store.list_runs()] == [first]
        second = store.save(_tagged(response, n="2"))
        assert index.read_bytes().split(b"\n")[:2] == [line.rstrip(b"\n"), torn]
        assert json.loads(index.read_bytes().split(b"\n")[2])["run_id"] == second
        assert {record.run_id for record in ArtifactStore(tmp_path)} == {first, second}

    def test_two_processes_lose_no_entry(self, tmp_path):
        spawn = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=2, mp_context=spawn) as pool:
            saved = list(pool.map(_save_fifty, [str(tmp_path)] * 2, ["a", "b"]))
        store = ArtifactStore(tmp_path)
        expected = set(saved[0] + saved[1])
        assert len(expected) == 100
        assert {record.run_id for record in store.list_runs()} == expected
        lines = (tmp_path / "index.jsonl").read_bytes().splitlines()
        assert sorted(json.loads(line)["run_id"] for line in lines) == sorted(expected)

    def test_first_line_gives_created_at_and_any_line_the_bitstream(self, tmp_path):
        served = serve_request(CompileRequest(model="MLP-500-100", emit_bitstream=True))
        run_id = ArtifactStore(tmp_path).save(served.response)
        created_at = ArtifactStore(tmp_path).latest().created_at
        bitstream = served.result.bitstream.to_json()
        ArtifactStore(tmp_path).save(served.response, bitstream_json=bitstream)
        ArtifactStore(tmp_path).save(served.response)
        assert len((tmp_path / "index.jsonl").read_bytes().splitlines()) == 3
        (record,) = ArtifactStore(tmp_path).list_runs()
        assert (record.run_id, record.created_at, record.has_bitstream) == (
            run_id, created_at, True
        )


class TestLegacyStore:
    @pytest.fixture
    def legacy(self, tmp_path):
        root = tmp_path / "store"
        shutil.copytree(LEGACY_STORE, root)
        return root

    @pytest.fixture
    def recorded(self):
        return json.loads((LEGACY_STORE / "index.json").read_text(encoding="utf-8"))

    def test_lists_and_loads_verified(self, legacy, recorded):
        store = ArtifactStore(legacy)
        newest_first = sorted(recorded.values(), key=lambda e: e["created_at"], reverse=True)
        assert [record.to_dict() for record in store.list_runs()] == newest_first
        for run_id in recorded:
            response = store.load(run_id, verify=True)
            request_json = (legacy / "runs" / run_id / "request.json").read_text(encoding="utf-8")
            assert response.request == CompileRequest.from_json(request_json)
        (with_bitstream,) = [r.run_id for r in store.list_runs() if r.has_bitstream]
        assert json.loads(store.load_bitstream(with_bitstream))["model"] == "MLP-500-100"

    def test_a_stored_fault_plan_is_dropped_on_show(self, legacy, recorded, capsys):
        run_id = min(recorded)
        for name in ("request.json", "response.json"):
            path = legacy / "runs" / run_id / name
            data = json.loads(path.read_text(encoding="utf-8"))
            request = data.get("request", data)
            request["fault_plan"] = '{"faults": [], "seed": 0}'
            path.write_text(json.dumps(data), encoding="utf-8")
        assert main(["runs", "--store", str(legacy), "--show", run_id, "--json"]) == 0
        shown = json.loads(capsys.readouterr().out)
        assert shown["request"]["fault_plan"] is None
        unedited = ArtifactStore(LEGACY_STORE).load(run_id, verify=True)
        assert shown == json.loads(unedited.to_json())
        assert main(["runs", "--store", str(legacy), "--json"]) == 0
        listed = {r["run_id"] for r in json.loads(capsys.readouterr().out)}
        assert listed == set(recorded)

    def test_accepts_saves_and_keeps_its_records(self, legacy, recorded):
        store = ArtifactStore(legacy)
        # the same point served today has the id it was stored under
        again = serve_request(CompileRequest(model="MLP-500-100", emit_bitstream=True))
        run_id = store.save(again.response)
        assert recorded[run_id]["has_bitstream"]
        new = store.save(serve_request(CompileRequest(model="LeNet")).response)
        assert new not in recorded
        reopened = ArtifactStore(legacy)
        assert len(reopened) == len(recorded) + 1
        records = {record.run_id: record.to_dict() for record in reopened}
        assert {k: records[k] for k in recorded} == recorded  # first write wins
        assert reopened.load(new, verify=True).request.model == "LeNet"


class TestCountedStore:
    @pytest.fixture
    def counted(self, tmp_path):
        root = tmp_path / "store"
        shutil.copytree(COUNTED_STORE, root)
        return root

    def test_loads_verified_under_the_address_it_was_saved_at(self, counted):
        store = ArtifactStore(counted)
        assert sorted(r.run_id for r in store.list_runs()) == [COUNTED_PNR, COUNTED_EVICTION]
        for run_id in (COUNTED_PNR, COUNTED_EVICTION):
            response = store.load(run_id, verify=True)
            assert ArtifactStore.run_id_for(response) != run_id  # re-addressed today
        assert store.load(COUNTED_PNR).request.run_pnr

    def test_an_edited_stage_second_still_fails_verification(self, counted):
        path = counted / "runs" / COUNTED_PNR / "response.json"
        data = json.loads(path.read_text(encoding="utf-8"))
        data["summary"]["pnr"]["place_seconds"] += 1.0
        path.write_text(json.dumps(data), encoding="utf-8")
        with pytest.raises(VerificationError):
            ArtifactStore(counted).load(COUNTED_PNR, verify=True)

    def test_a_new_save_of_the_eviction_point_lands_on_the_cold_id(self, counted):
        store = ArtifactStore(counted)
        point = CompileRequest(model="MLP-500-100", duplication_degree=2, seed=0)
        evicted = serve_request(point, cache=StageCache(max_entries=1)).response
        assert evicted.timings.evictions == 1
        run_id = store.save(evicted)
        cold = serve_request(point, cache=StageCache()).response
        assert run_id == ArtifactStore.run_id_for(cold) != COUNTED_EVICTION
        assert len(ArtifactStore(counted)) == 3
        assert store.load(run_id, verify=True).request == point


class TestClientIntegration:
    def test_client_auto_persists(self, tmp_path):
        store = ArtifactStore(tmp_path)
        client = FPSAClient(store=store)
        response = client.compile(CompileRequest(model="MLP-500-100"))
        assert response.ok
        assert len(store) == 1
        assert store.load(store.list_runs()[0].run_id) == response

    def test_client_persists_bitstream(self, tmp_path):
        store = ArtifactStore(tmp_path)
        client = FPSAClient(store=store)
        client.compile(CompileRequest(model="MLP-500-100", emit_bitstream=True))
        record = store.list_runs()[0]
        assert record.has_bitstream
        assert store.load_bitstream(record.run_id) is not None

    def test_job_manager_persists(self, tmp_path):
        from concurrent.futures import ThreadPoolExecutor

        from repro.service import JobManager

        store = ArtifactStore(tmp_path)
        with ThreadPoolExecutor(max_workers=2) as pool, JobManager(
            pool=pool, store=store
        ) as jm:
            jm.submit_batch(["MLP-500-100", "LeNet"])
            jm.wait_all()
        assert len(store) == 2
