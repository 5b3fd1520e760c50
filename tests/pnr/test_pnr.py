"""Tests of the end-to-end placement & routing flow."""

import pytest

from repro.pnr.pnr import PlaceAndRoute


class TestPlaceAndRoute:
    @pytest.fixture(scope="class")
    def mlp_pnr(self, mlp_coreops, config):
        from repro.mapper.mapper import SpatialTemporalMapper

        mapping = SpatialTemporalMapper(config).map(mlp_coreops, duplication_degree=2)
        flow = PlaceAndRoute(config, channel_width=24, seed=2)
        return flow.run(mapping.netlist), mapping

    def test_routing_is_legal(self, mlp_pnr):
        result, _ = mlp_pnr
        assert result.routing.legal

    def test_every_net_routed(self, mlp_pnr):
        result, mapping = mlp_pnr
        routable = [n for n in mapping.netlist.nets if n.sinks]
        assert len(result.routing.nets) == len(routable)

    def test_every_block_placed(self, mlp_pnr):
        result, mapping = mlp_pnr
        assert set(result.placement.positions) == set(mapping.netlist.blocks)

    def test_timing_feeds_performance_model(self, mlp_pnr, config):
        result, _ = mlp_pnr
        assert result.critical_path_ns > 0
        assert result.mean_route_segments >= 1
        # the measured critical path should be of the same order as the
        # analytic model's assumed hop delay for a fabric of this size
        analytic = config.routing.hop_delay_ns(8)
        assert result.critical_path_ns < 5 * analytic

    def test_summary(self, mlp_pnr):
        result, _ = mlp_pnr
        assert "fabric" in result.summary()

    def test_explain_attributes_place_to_evaluated_moves(self, mlp_pnr):
        result, _ = mlp_pnr
        stats = result.placement_stats
        assert 0 < stats.moves_evaluated <= stats.moves_proposed
        assert result.stage_seconds["place_delta"] == stats.place_delta_seconds
        assert result.stage_seconds["place_start"] == stats.start_seconds
        placer_line = result.explain().splitlines()[1]
        assert f"{stats.moves_evaluated} evaluated" in placer_line
        assert "us per evaluated move" in placer_line
        assert f"({stats.nets_repriced} nets repriced, " in placer_line
        assert f"{stats.box_rescans} box axes rescanned)" in placer_line
        assert placer_line.endswith(
            f"HPWL {stats.start_cost} at the start -> {stats.final_cost} final"
        )
        assert stats.final_cost <= stats.start_cost
        assert 0 < stats.box_rescans < stats.nets_repriced
