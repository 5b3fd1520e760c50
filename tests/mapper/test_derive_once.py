"""How much front-end work one compile does, counted.

A core-op graph derives its group order, tile counts and traffic once per
version, and a compile the partition pass puts on one chip allocates once.
The counts below are calls, not seconds, so they hold on any host.
"""

import pickle
import sys

import pytest

from repro.core.cache import StageCache
from repro.core.compiler import FPSACompiler
from repro.mapper import allocation
from repro.models.zoo import build_model
from repro.service.schemas import ResultSummary
from repro.synthesizer.coreop import WeightGroup

#: pickled sizes (protocol 4) of the CIFAR-VGG17 d4 synthesis and mapping
#: entries at the commit before the derived view
SYNTHESIS_ENTRY_BYTES = 4118
MAPPING_ENTRY_BYTES = 7568


def _entries(result) -> tuple[bytes, bytes]:
    """The synthesis and mapping entries of a compile, pickled."""
    return (
        pickle.dumps({"coreops": result.coreops}, protocol=4),
        pickle.dumps({"mapping": result.mapping}, protocol=4),
    )


@pytest.fixture
def calls(monkeypatch):
    """Counts of ``allocate`` (at every module that imported it) and of
    ``WeightGroup.tiling`` while the test runs."""
    counts = {"allocate": 0, "tiling": 0}
    real_allocate, real_tiling = allocation.allocate, WeightGroup.tiling

    def counting_allocate(*args, **kwargs):
        counts["allocate"] += 1
        return real_allocate(*args, **kwargs)

    def counting_tiling(*args, **kwargs):
        counts["tiling"] += 1
        return real_tiling(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name.startswith("repro") and getattr(module, "allocate", None) is real_allocate:
            monkeypatch.setattr(module, "allocate", counting_allocate)
    monkeypatch.setattr(WeightGroup, "tiling", counting_tiling)
    return counts


def _compile(model, duplication, cache=None):
    return FPSACompiler(cache=cache if cache is not None else False).compile(
        build_model(model), duplication_degree=duplication, num_chips="auto"
    )


class TestOneChipCompile:
    def test_allocates_once_and_tiles_each_group_once(self, calls):
        result = _compile("CIFAR-VGG17", 4)
        assert result.partition.num_chips == 1
        assert len(result.coreops) == 41
        assert calls == {"allocate": 1, "tiling": 41}

    def test_summary_builds_no_tile_plan(self, calls):
        result = _compile("CIFAR-VGG17", 4)
        built = calls["tiling"]
        ResultSummary.from_result(result)
        assert calls["tiling"] == built

    def test_no_memo_crosses_the_shared_tier(self):
        fresh = _entries(_compile("CIFAR-VGG17", 4, cache=StageCache()))
        result = _compile("CIFAR-VGG17", 4, cache=StageCache())
        ResultSummary.from_result(result)  # every derived value read
        result.coreops.spatial_utilization()
        result.mapping.netlist
        synthesis, mapping = _entries(result)
        assert (synthesis, mapping) == fresh  # the bytes of a compile nothing read
        assert len(synthesis) <= SYNTHESIS_ENTRY_BYTES
        assert len(mapping) <= MAPPING_ENTRY_BYTES
        loaded = pickle.loads(mapping)["mapping"]
        assert loaded.allocation == result.mapping.allocation
        assert loaded.allocation.total_pes == result.mapping.allocation.total_pes


def test_two_chip_compile_allocates_the_model_and_each_shard(calls):
    result = _compile("VGG16", 1)
    assert result.partition.num_chips == 2
    assert calls["allocate"] == 1 + 2
