"""Benchmark: raw toolchain throughput (synthesis, mapping, P&R).

These time the software stack itself — useful for tracking regressions in
the compiler rather than reproducing a paper figure.
"""

import pytest

from repro.core.compiler import FPSACompiler
from repro.mapper.mapper import SpatialTemporalMapper
from repro.models import build_lenet, build_vgg16
from repro.pnr.pnr import PlaceAndRoute
from repro.synthesizer.synthesizer import synthesize


@pytest.fixture(scope="module")
def vgg16_graph():
    return build_vgg16()


@pytest.fixture(scope="module")
def lenet_graph():
    return build_lenet()


def test_synthesize_vgg16(benchmark, vgg16_graph):
    coreops = benchmark(synthesize, vgg16_graph)
    assert coreops.min_pes() > 2000


def test_map_vgg16_dup64(benchmark, vgg16_graph):
    coreops = synthesize(vgg16_graph)
    mapper = SpatialTemporalMapper()
    result = benchmark(mapper.map, coreops, 64)
    assert result.netlist.n_pe > 2000


def test_full_compile_lenet(benchmark, lenet_graph):
    compiler = FPSACompiler()
    result = benchmark.pedantic(
        lambda: compiler.compile(lenet_graph, duplication_degree=4),
        rounds=1, iterations=1,
    )
    assert result.throughput_samples_per_s > 0


def test_place_and_route_lenet(benchmark, lenet_graph):
    coreops = synthesize(lenet_graph)
    mapping = SpatialTemporalMapper().map(coreops, duplication_degree=2)
    flow = PlaceAndRoute(channel_width=24, seed=0)
    result = benchmark.pedantic(lambda: flow.run(mapping.netlist), rounds=1, iterations=1)
    assert result.routing.legal
