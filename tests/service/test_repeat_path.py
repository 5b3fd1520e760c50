"""What a repeat request does, as counts of work rather than timings.

A hit looks things up: the worker's shared zoo graph, the fingerprint and
operation count memoized on it, the stage cache, and a store that has the
run already.  Each test pins one of those by counting the work it must no
longer do (and the guard that makes skipping it safe).
"""

import builtins
import dataclasses
import os
import shutil
import sys
import threading
from pathlib import Path

import pytest

from repro.core import cache as cache_module
from repro.core.cache import StageCache, graph_fingerprint
from repro.core.compiler import FPSACompiler
from repro.graph.ops import Dense
from repro.models import zoo
from repro.models.zoo import BENCHMARK_MODELS, build_model, shared_model
from repro.perf.analytic import pipeline_depth
from repro.service import ArtifactStore, CompileRequest, ResultSummary, serve_request
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
    ``("open", path)`` / ``("replace", src, dst)`` entries.  ``write_text``
    fails outright: it opens the final name in place."""
    log = []
    real_open, real_replace = builtins.open, os.replace

    def spy_open(file, mode="r", *args, **kwargs):
        if set(mode) & set("wax+"):
            log.append(("open", Path(file).name))
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
        opened = [entry[1] for entry in writes if entry[0] == "open"]
        replaced = [entry[1:] for entry in writes if entry[0] == "replace"]
        final_names = {"response.json", "request.json", "bitstream.json", "index.json"}
        assert not final_names & set(opened)
        assert {dst for _, dst in replaced} == final_names
        assert all(src == dst + ".tmp" for src, dst in replaced)
        # nothing but the final files is left behind
        run_dir = store.runs_root / store.run_id_for(served.response)
        assert {p.name for p in run_dir.iterdir()} == final_names - {"index.json"}

    def test_another_instance_takes_the_guarded_path(self, tmp_path, response, writes):
        first = ArtifactStore(tmp_path)
        run_id = first.save(response)
        second = ArtifactStore(tmp_path)
        assert [record.run_id for record in second.list_runs()] == [run_id]
        created_at = second.list_runs()[0].created_at
        writes.clear()
        assert second.save(response) == run_id
        assert ("replace", "index.json.tmp", "index.json") in writes
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
