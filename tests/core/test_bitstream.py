"""Tests of the chip-configuration (bitstream) generation."""

import copy
import json

import pytest

from repro.config_gen import (
    BufferConfig,
    ControlConfig,
    CrossbarConfig,
    FPSABitstream,
    RoutingSwitchConfig,
    generate_bitstream,
)
from repro.core.api import deploy_model
from repro.core.compiler import FPSACompiler
from repro.errors import InvalidRequestError
from repro.mapper.mapper import SpatialTemporalMapper
from repro.models import build_lenet, build_mlp_500_100
from repro.synthesizer import synthesize


@pytest.fixture(scope="module")
def lenet_bitstream_deployment():
    compiler = FPSACompiler()
    result = compiler.compile(
        build_lenet(), duplication_degree=2, run_pnr=True,
        pnr_channel_width=24, emit_bitstream=True,
    )
    return result


class TestGenerateBitstream:
    def test_one_crossbar_config_per_pe(self, lenet_bitstream_deployment):
        bitstream = lenet_bitstream_deployment.bitstream
        assert bitstream is not None
        assert len(bitstream.crossbars) == lenet_bitstream_deployment.mapping.netlist.n_pe

    def test_crossbar_tiles_within_crossbar_size(self, lenet_bitstream_deployment, config):
        for crossbar in lenet_bitstream_deployment.bitstream.crossbars:
            assert 0 < crossbar.tile_rows <= config.pe.rows
            assert 0 < crossbar.tile_cols <= config.pe.logical_cols
            assert crossbar.cells_per_weight == config.pe.cells_per_weight

    def test_weight_bits_cover_model_weights(self, lenet_bitstream_deployment, config):
        """Every stored weight uses cells_per_weight x 2 x cell_bits bits, so
        the bitstream must hold at least the model's weights."""
        bitstream = lenet_bitstream_deployment.bitstream
        graph = lenet_bitstream_deployment.graph
        per_weight = config.pe.cells_per_weight * 2 * config.pe.cell_bits
        assert bitstream.weight_configuration_bits >= graph.total_params() * per_weight

    def test_routing_configs_from_pnr(self, lenet_bitstream_deployment):
        bitstream = lenet_bitstream_deployment.bitstream
        routed = lenet_bitstream_deployment.pnr.routing.nets
        assert len(bitstream.routing) == len(routed)
        assert all(r.switches_on > 0 for r in bitstream.routing)

    def test_control_and_buffers_present(self, lenet_bitstream_deployment):
        bitstream = lenet_bitstream_deployment.bitstream
        mapping = lenet_bitstream_deployment.mapping
        assert bitstream.control.clbs == mapping.control.clbs_needed
        assert len(bitstream.buffers) == mapping.netlist.n_smb

    def test_without_pnr_uses_estimated_routing(self, config):
        coreops = synthesize(build_mlp_500_100())
        mapping = SpatialTemporalMapper(config).map(coreops, duplication_degree=1)
        bitstream = generate_bitstream(mapping, pnr=None, config=config)
        assert len(bitstream.routing) == len(mapping.netlist.nets)
        assert bitstream.total_configuration_bits > 0

    def test_no_tile_derived_per_crossbar(self, config, tiles_built):
        """VGG16's first shard holds fc1 (25088 x 4096, 1568 tiles).  A
        crossbar's shape is arithmetic on its group's plan, so the bitstream
        builds no ``Tile``; each shape still equals the plan's tile."""
        from repro.models.zoo import build_model

        result = FPSACompiler().compile(
            build_model("VGG16"), duplication_degree=1, num_chips="auto",
            use_cache=False,
        )
        mapping = result.shard_results[0].mapping
        assert "fc1" in mapping.coreops
        tiles_built.clear()
        bitstream = generate_bitstream(mapping, config=config)
        assert len(bitstream.crossbars) == mapping.netlist.n_pe == 1824
        assert tiles_built == []
        pe = config.pe
        plans = {}
        for crossbar, block in zip(
            bitstream.crossbars, mapping.netlist.blocks_of_type("PE"), strict=True
        ):
            if crossbar.group not in plans:
                group = mapping.coreops.group(crossbar.group)
                plans[crossbar.group] = group.tiling(pe.rows, pe.logical_cols)
            tile = plans[crossbar.group].tile(block.tile)
            assert (crossbar.tile_rows, crossbar.tile_cols) == (tile.rows, tile.cols)

    @pytest.mark.parametrize("tiles", [1, 3])
    def test_tile_index_outside_the_group_is_rejected(self, mlp_coreops, config, tiles):
        """An allocation whose tiles differ from its group's tiling would
        program PEs past the group's last tile, or leave tiles out; the
        census refuses it, naming the group, its tiles and the tile count."""
        import dataclasses

        from repro.errors import MappingError
        from repro.mapper.mapper import SpatialTemporalMapper

        mapping = SpatialTemporalMapper(config).map(mlp_coreops)
        group = mlp_coreops.group("fc2")
        assert group.min_pes(config.pe.rows, config.pe.logical_cols) == 2
        allocation = mapping.allocation
        stray = dataclasses.replace(allocation.allocations[group.name], tiles=tiles)
        mapping.allocation = dataclasses.replace(
            allocation, allocations={**allocation.allocations, group.name: stray}
        )
        with pytest.raises(MappingError) as caught:
            generate_bitstream(mapping, config=config)
        assert caught.value.details == {"group": group.name, "tiles": tiles, "n_tiles": 2}
        assert f"{group.name!r}" in str(caught.value) and f"{tiles} tiles" in str(caught.value)

    def test_json_roundtrip(self, lenet_bitstream_deployment):
        bitstream = lenet_bitstream_deployment.bitstream
        text = bitstream.to_json()
        parsed = json.loads(text)
        assert parsed["model"] == "LeNet"
        restored = FPSABitstream.from_json(text)
        assert restored.total_configuration_bits == bitstream.total_configuration_bits
        assert len(restored.crossbars) == len(bitstream.crossbars)

    def test_dict_roundtrip_is_equal(self, lenet_bitstream_deployment):
        bitstream = lenet_bitstream_deployment.bitstream
        restored = FPSABitstream.from_dict(bitstream.to_dict())
        assert restored == bitstream
        assert type(restored.crossbars[0]) is CrossbarConfig

    def test_summary_and_deployment_summary(self, lenet_bitstream_deployment):
        assert "bitstream" in lenet_bitstream_deployment.bitstream.summary()
        assert "bitstream" in lenet_bitstream_deployment.summary()


class TestRecords:
    @pytest.mark.parametrize(
        "record",
        [
            CrossbarConfig("pe0", "g", 27, 64, 8, 4),
            RoutingSwitchConfig("net0", "pe0", 2, 6, 9),
            ControlConfig(1, 3, 4, 5, 6),
            BufferConfig("smb0", "g", 2730, 6),
        ],
        ids=lambda record: type(record).__name__,
    )
    def test_every_field_is_read_only(self, record):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))

    def test_properties_and_repr(self):
        crossbar = CrossbarConfig("pe0", "g", 27, 64, 8, 4)
        assert crossbar.programmed_cells == 27 * 64 * 8 * 2
        assert crossbar.configuration_bits == crossbar.programmed_cells * 4
        assert ControlConfig(1, 3, 4, 5, 6).configuration_bits == 3 * 64
        assert repr(crossbar) == (
            "CrossbarConfig(pe='pe0', group='g', tile_rows=27, tile_cols=64, "
            "cells_per_weight=8, cell_bits=4)"
        )

    def test_pooled_shards_return_equal_bitstreams(self):
        """Shard records cross the pool boundary pickled and come back the
        same records."""
        sequential, pooled = (
            deploy_model(
                "LeNet", duplication_degree=4, num_chips=2, emit_bitstream=True,
                shard_jobs=jobs, use_cache=False,
            )
            for jobs in (1, 2)
        )
        first = [shard.bitstream for shard in sequential.shard_results]
        second = [shard.bitstream for shard in pooled.shard_results]
        assert len(first) == 2 and None not in first
        assert second == first
        assert type(second[0].crossbars[0]) is CrossbarConfig


class TestFromDictErrors:
    @pytest.fixture(scope="class")
    def data(self):
        bitstream = generate_bitstream(
            SpatialTemporalMapper().map(synthesize(build_mlp_500_100()))
        )
        return bitstream.to_dict()

    @pytest.mark.parametrize("key", ["model", "duplication_degree"])
    def test_missing_key(self, data, key):
        broken = {k: v for k, v in data.items() if k != key}
        with pytest.raises(InvalidRequestError) as caught:
            FPSABitstream.from_dict(broken)
        assert caught.value.details == {"field": key}
        assert repr(key) in str(caught.value)

    def test_unknown_record_field(self, data):
        broken = copy.deepcopy(data)
        broken["crossbars"][1]["tile_depth"] = 3
        with pytest.raises(InvalidRequestError) as caught:
            FPSABitstream.from_dict(broken)
        assert caught.value.details == {"record": "crossbars", "index": 1, "field": "tile_depth"}
        assert "crossbars[1]" in str(caught.value) and "unknown" in str(caught.value)

    def test_missing_record_field(self, data):
        broken = copy.deepcopy(data)
        del broken["routing"][2]["switches_on"]
        with pytest.raises(InvalidRequestError) as caught:
            FPSABitstream.from_dict(broken)
        assert caught.value.details == {"record": "routing", "index": 2, "field": "switches_on"}
        assert "routing[2]" in str(caught.value) and "missing" in str(caught.value)

    def test_single_control_record(self, data):
        broken = copy.deepcopy(data)
        del broken["control"]["luts"]
        with pytest.raises(InvalidRequestError) as caught:
            FPSABitstream.from_dict(broken)
        assert caught.value.details == {"record": "control", "index": None, "field": "luts"}

    def test_a_record_that_is_not_an_object(self, data):
        broken = copy.deepcopy(data)
        broken["buffers"][0] = ["smb0", "g", 1, 6]
        with pytest.raises(InvalidRequestError) as caught:
            FPSABitstream.from_dict(broken)
        assert caught.value.details == {"record": "buffers", "index": 0}
