"""The netlist is derived: built by its first reader, never by a compile
that only counts, and never pickled.

Counts, not timings — a front-end compile that silently starts building
netlists again fails here and not in the next benchmark.
"""

import dataclasses
import pickle

import pytest

from repro.analysis.verify import verify_netlist
from repro.core.cache import StageCache, netlist_fingerprint
from repro.core.compiler import FPSACompiler
from repro.errors import MappingError
from repro.mapper import netlist as netlist_module
from repro.models.zoo import MODEL_BUILDERS, build_model
from repro.service import CompileRequest, ResultSummary, serve_request


def _compile(model, **knobs):
    return FPSACompiler(cache=False).compile(build_model(model), use_cache=False, **knobs)


def _mappings(result):
    if result.mapping is not None:
        return [result.mapping]
    return [shard.mapping for shard in result.shard_results]


@pytest.fixture
def datapath_builds(monkeypatch):
    """Every ``build_datapath`` call made while the test runs."""
    calls = []
    build = netlist_module.build_datapath

    def spy(coreops, allocation, config=None, **kwargs):
        calls.append(coreops.name)
        return build(coreops, allocation, config, **kwargs)

    monkeypatch.setattr(netlist_module, "build_datapath", spy)
    return calls


class TestNothingBuildsWhatNothingReads:
    @pytest.mark.parametrize("num_chips", [None, "auto", 2])
    def test_front_end_compile_and_its_summaries(self, datapath_builds, num_chips):
        compiler = FPSACompiler(cache=False)
        result = compiler.compile(
            build_model("LeNet"), duplication_degree=4, num_chips=num_chips, use_cache=False
        )
        summary = ResultSummary.from_result(result, compiler.config)
        assert summary.blocks["n_pe"] > 0
        assert "PEs:" in result.summary()
        if result.mapping is not None:
            assert result.energy().total_pj > 0
            assert "PEs:" in result.mapping.summary()
            assert result.mapping.chip_area_mm2() > 0
        assert datapath_builds == []
        assert all("netlist" not in vars(m) for m in _mappings(result))

    def test_serve_request(self, datapath_builds):
        # a private cache: another test's compile of the same point may
        # have read the netlist of the process-wide cache's mapping
        served = serve_request(
            CompileRequest(model="LeNet", duplication_degree=4), cache=StageCache()
        )
        served.response.raise_for_status()
        assert served.response.summary.blocks["n_smb"] > 0
        assert datapath_builds == []
        assert "netlist" not in vars(served.result.mapping)

    @pytest.mark.parametrize("num_chips", [None, "auto", 2])
    def test_bitstream_compile(self, datapath_builds, num_chips):
        """Without P&R the chip configuration is written from the mapping's
        name batches; no netlist is built for it."""
        result = _compile(
            "LeNet", duplication_degree=2, emit_bitstream=True, num_chips=num_chips
        )
        mappings = _mappings(result)
        if result.mapping is not None:
            bitstreams = [result.bitstream]
        else:
            bitstreams = [shard.bitstream for shard in result.shard_results]
        assert len(bitstreams) == len(mappings) and all(b.crossbars for b in bitstreams)
        assert datapath_builds == []
        assert all("netlist" not in vars(m) for m in mappings)

    @pytest.mark.parametrize(
        "knobs",
        [
            {"run_pnr": True, "seed": 0},
            {"verify": True},
            {"run_pnr": True, "seed": 0, "emit_bitstream": True, "verify": True},
            {"run_pnr": True, "seed": 0, "verify": True, "num_chips": 2},
        ],
        ids=["pnr", "verify", "all-three", "two-shards"],
    )
    def test_readers_build_each_netlist_once(self, datapath_builds, knobs):
        result = _compile("LeNet", duplication_degree=2, **knobs)
        mappings = _mappings(result)
        assert len(datapath_builds) == len(mappings) == knobs.get("num_chips", 1)
        for mapping in mappings:
            assert mapping.netlist is vars(mapping)["netlist"]
        assert len(datapath_builds) == len(mappings)  # reading again builds nothing


class TestNeverPickled:
    def test_round_trip_drops_and_rebuilds_the_same_netlist(self):
        mapping = _compile("LeNet", duplication_degree=4).mapping
        fingerprint = netlist_fingerprint(mapping.netlist)
        assert "netlist" in vars(mapping)
        restored = pickle.loads(pickle.dumps(mapping))
        assert "netlist" not in vars(restored)
        assert restored.block_counts() == mapping.block_counts()
        assert netlist_fingerprint(restored.netlist) == fingerprint
        assert "netlist" in vars(mapping)  # pickling leaves the original's in place

    def test_googlenet_pickled_artifacts_are_small(self):
        result = _compile("GoogLeNet", duplication_degree=8)
        result.mapping.netlist  # a read netlist must not reach the pickle either
        artifacts = {"coreops": result.coreops, "mapping": result.mapping}
        assert len(pickle.dumps(artifacts, pickle.HIGHEST_PROTOCOL)) < 40_000  # 154 157 with it


class TestLinearBuilder:
    def test_nets_of_one_edge_share_one_sinks_tuple(self):
        netlist = _compile("CIFAR-VGG17", duplication_degree=16).mapping.netlist
        by_sinks = {}
        for net in netlist.nets:
            by_sinks.setdefault(net.sinks, []).append(net)
        shared = [nets for nets in by_sinks.values() if len(nets) > 1]
        assert shared
        assert all(net.sinks is nets[0].sinks for nets in shared for net in nets)

    def test_edge_to_a_group_the_allocation_lacks_is_rejected(self):
        """The edge ``__input__ -> conv1`` used to escape as a bare
        ``KeyError: 'conv1'``; no net may name blocks that were never built."""
        result = _compile("LeNet")
        allocation = result.mapping.allocation
        allocations = {k: v for k, v in allocation.allocations.items() if k != "conv1"}
        lacking = dataclasses.replace(allocation, allocations=allocations)
        with pytest.raises(MappingError, match="'conv1'") as caught:
            netlist_module.build_datapath(result.coreops, lacking)
        assert caught.value.details == {"group": "conv1"}

    @pytest.mark.parametrize("duplication", [1, 4])
    @pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
    def test_zoo_netlists_verify(self, model, duplication):
        result = _compile(model, duplication_degree=duplication, num_chips="auto")
        for mapping in _mappings(result):
            netlist = mapping.netlist
            verify_netlist(netlist)
            assert netlist.mutation_count == len(netlist.blocks) + len(netlist.nets)
