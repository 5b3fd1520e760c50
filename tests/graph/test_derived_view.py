"""The computational graph's derived view: validated once per version.

``ComputationalGraph.derived()`` holds what a compile reads of the graph
(validated order, input specs, output nodes, operation count).  Nodes are
immutable and ``add`` bumps ``mutation_count``, so the view of a version
is sound until the next ``add``; it is never pickled.
"""

from __future__ import annotations

import dataclasses
import pickle

import pytest

from repro.core.cache import coreops_fingerprint
from repro.core.compiler import FPSACompiler
from repro.graph import graph as graph_module
from repro.graph.graph import ComputationalGraph, GraphValidationError
from repro.graph.ops import Dense, InputOp
from repro.models.zoo import BENCHMARK_MODELS, build_model

DEGREES = (1, 4, 16, 64)

#: ``coreops_fingerprint(...)[:16]`` of each zoo model's synthesized graph,
#: recorded before the view existed; the duplication degree does not enter it
COREOPS_FINGERPRINTS = {
    "MLP-500-100": "ec3c7de82eb2617c",
    "LeNet": "03c40c0a0243337c",
    "CIFAR-VGG17": "319742ee834d268e",
    "AlexNet": "38ba5042c99255ee",
    "VGG16": "b41d46a230bb6be0",
    "GoogLeNet": "5cfecb84ceba5841",
    "ResNet152": "fa8fd164d5c07b11",
}


@pytest.fixture
def validations(monkeypatch) -> list[str]:
    """The names of the graphs validated while the test runs, one entry
    per view built."""
    built: list[str] = []

    class CountingView(graph_module._View):
        def __init__(self, graph):
            super().__init__(graph)
            built.append(graph.name)

    monkeypatch.setattr(graph_module, "_View", CountingView)
    return built


def _compile_sweep(graph: ComputationalGraph) -> list:
    compiler = FPSACompiler(cache=False)
    return [
        compiler.compile(graph, duplication_degree=d, num_chips="auto", use_cache=False)
        for d in DEGREES
    ]


def test_a_graph_compiled_at_four_degrees_is_validated_once(validations):
    graph = build_model("LeNet")  # the builder validates it
    assert validations == ["LeNet"]
    results = _compile_sweep(graph)
    assert all(r.performance is not None for r in results)
    assert validations == ["LeNet"]


def test_an_add_after_a_compile_is_validated_and_synthesized(validations):
    graph = build_model("MLP-500-100")
    compiler = FPSACompiler(cache=False)
    before = compiler.compile(graph, use_cache=False).coreops
    graph.add("extra", Dense(out_features=7), ["prob"])
    assert len(validations) == 1
    after = compiler.compile(graph, use_cache=False).coreops
    assert len(validations) == 2
    assert [n.name for n in graph.derived().outputs] == ["extra"]
    assert [g.source for g in after.groups()] == [
        *(g.source for g in before.groups()), "extra"
    ]
    assert after.total_macs() == before.total_macs() + 10 * 7


def test_an_unpickled_graph_has_no_view_and_validates_on_first_use(validations):
    graph = build_model("LeNet")
    graph.derived()
    assert "_view" in vars(graph)
    copy = pickle.loads(pickle.dumps(graph))
    assert "_view" not in vars(copy)
    assert len(validations) == 1
    assert [n.name for n in copy] == [n.name for n in graph]
    assert len(validations) == 2
    assert copy.total_ops() == graph.total_ops()
    assert len(validations) == 2


def test_a_failed_validation_keeps_no_view():
    graph = ComputationalGraph("empty")
    for _ in range(2):
        with pytest.raises(GraphValidationError, match="no input nodes"):
            graph.derived()
    assert "_view" not in vars(graph)
    graph.add("input", InputOp((4,)))
    assert [n.name for n in graph.validate()] == ["input"]


def test_graph_nodes_cannot_be_reassigned():
    graph = build_model("MLP-500-100")
    node = graph.node("fc1")
    assert isinstance(node.inputs, tuple)
    for field in ("name", "op", "inputs", "output"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(node, field, getattr(node, field))


@pytest.mark.parametrize("model", BENCHMARK_MODELS)
def test_the_zoo_synthesizes_the_recorded_coreop_graphs(model):
    for result in _compile_sweep(build_model(model)):
        assert coreops_fingerprint(result.coreops)[:16] == COREOPS_FINGERPRINTS[model]
