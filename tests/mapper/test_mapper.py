"""Tests of the end-to-end spatial-to-temporal mapper."""

import pytest

from repro.mapper.mapper import SpatialTemporalMapper


class TestSpatialTemporalMapper:
    def test_mapping_result_fields(self, lenet_mapping, lenet_coreops):
        assert lenet_mapping.model == "LeNet"
        assert lenet_mapping.duplication_degree == 4
        assert lenet_mapping.netlist.n_pe == lenet_mapping.allocation.total_pes
        assert lenet_mapping.control.clbs_needed == lenet_mapping.netlist.n_clb

    def test_pe_budget_mapping(self, lenet_coreops, config):
        mapper = SpatialTemporalMapper(config)
        budget = 3 * lenet_coreops.min_pes()
        result = mapper.map(lenet_coreops, pe_budget=budget)
        assert result.netlist.n_pe <= budget
        assert result.duplication_degree >= 1

    def test_pe_budget_too_small_raises(self, lenet_coreops, config):
        mapper = SpatialTemporalMapper(config)
        with pytest.raises(ValueError):
            mapper.map(lenet_coreops, pe_budget=1)

    def test_chip_area_positive(self, lenet_mapping, config):
        assert lenet_mapping.chip_area_mm2(config) > 0

    def test_summary_mentions_blocks(self, lenet_mapping):
        text = lenet_mapping.summary()
        assert "PEs" in text
        assert "duplication degree 4" in text


class TestNetlistBuiltOnce:
    """Work counts: a map adds every block of its netlist exactly once, and
    a second read of the netlist adds none."""

    @pytest.fixture
    def blocks_added(self, monkeypatch):
        from repro.mapper import netlist as netlist_module

        added = []
        add_blocks = netlist_module._add_blocks

        def spy(netlist, block_type, batch):
            added.extend(batch)
            return add_blocks(netlist, block_type, batch)

        monkeypatch.setattr(netlist_module, "_add_blocks", spy)
        return added

    def test_map(self, lenet_coreops, config, blocks_added):
        result = SpatialTemporalMapper(config).map(lenet_coreops, duplication_degree=4)
        assert result.netlist.n_clb == result.control.clbs_needed > 0
        assert blocks_added == list(result.netlist.blocks)

    def test_mapping_pass_ignores_the_dedup_knob(
        self, lenet_coreops, config, blocks_added, monkeypatch
    ):
        # ``dedup=True`` takes the one path there is: a single call of
        # ``SpatialTemporalMapper.map``, and the artifacts of ``dedup=False``
        from repro.core.cache import netlist_fingerprint
        from repro.core.pipeline import CompileContext, CompileOptions
        from repro.mapper.passes import MappingPass

        calls = []
        plain_map = SpatialTemporalMapper.map

        def spy(mapper, coreops, **knobs):
            calls.append(knobs)
            return plain_map(mapper, coreops, **knobs)

        monkeypatch.setattr(SpatialTemporalMapper, "map", spy)

        def run(dedup):
            ctx = CompileContext(
                graph=None,
                config=config,
                options=CompileOptions(duplication_degree=4, dedup=dedup),
            )
            ctx.coreops = lenet_coreops
            MappingPass().run(ctx)
            return ctx.mapping

        with_knob = run(dedup=True)
        assert len(calls) == 1
        fingerprint = netlist_fingerprint(with_knob.netlist)
        assert blocks_added == list(with_knob.netlist.blocks)
        plain = run(dedup=False)
        assert fingerprint == netlist_fingerprint(plain.netlist)
        assert with_knob.allocation == plain.allocation
        assert with_knob.control == plain.control
