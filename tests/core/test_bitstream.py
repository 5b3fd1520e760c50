"""Tests of the chip-configuration (bitstream) generation."""

import json

import pytest

from repro.config_gen import FPSABitstream, generate_bitstream
from repro.core.compiler import FPSACompiler
from repro.models import build_lenet, build_mlp_500_100


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
        from repro.mapper.mapper import SpatialTemporalMapper
        from repro.synthesizer import synthesize

        coreops = synthesize(build_mlp_500_100())
        mapping = SpatialTemporalMapper(config).map(coreops, duplication_degree=1)
        bitstream = generate_bitstream(mapping, pnr=None, config=config)
        assert len(bitstream.routing) == len(mapping.netlist.nets)
        assert bitstream.total_configuration_bits > 0

    def test_one_tile_derived_per_crossbar(self, config, tiles_built):
        """VGG16's first shard holds fc1 (25088 x 4096, 1568 tiles): a tile
        list rebuilt per PE constructs millions of ``Tile`` objects here."""
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
        assert len(tiles_built) == len(bitstream.crossbars)

    @pytest.mark.parametrize("tile", [-1, 2])
    def test_tile_index_outside_the_group_is_rejected(self, mlp_coreops, config, tile):
        """``tiles[-1]`` used to program the last tile's geometry silently."""
        from repro.errors import MappingError
        from repro.mapper.mapper import SpatialTemporalMapper
        from repro.mapper.netlist import Block, BlockType

        mapping = SpatialTemporalMapper(config).map(mlp_coreops)
        group = mlp_coreops.group("fc2")
        assert group.min_pes(config.pe.rows, config.pe.logical_cols) == 2
        mapping.netlist.add_block(
            Block(name="stray", type=BlockType.PE, group=group.name, tile=tile)
        )
        with pytest.raises(MappingError) as caught:
            generate_bitstream(mapping, config=config)
        assert caught.value.details == {
            "block": "stray", "group": group.name, "tile": tile, "n_tiles": 2,
        }
        assert "'stray'" in str(caught.value) and "2 tiles" in str(caught.value)

    def test_json_roundtrip(self, lenet_bitstream_deployment):
        bitstream = lenet_bitstream_deployment.bitstream
        text = bitstream.to_json()
        parsed = json.loads(text)
        assert parsed["model"] == "LeNet"
        restored = FPSABitstream.from_json(text)
        assert restored.total_configuration_bits == bitstream.total_configuration_bits
        assert len(restored.crossbars) == len(bitstream.crossbars)

    def test_summary_and_deployment_summary(self, lenet_bitstream_deployment):
        assert "bitstream" in lenet_bitstream_deployment.bitstream.summary()
        assert "bitstream" in lenet_bitstream_deployment.summary()
