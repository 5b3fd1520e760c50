"""Tests of the crossbar tiling planner."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.synthesizer.splitting import Tile, plan_tiling, reduction_tree_width


class TestPlanTiling:
    def test_fits_in_one_tile(self):
        plan = plan_tiling(100, 200, 256, 256)
        assert plan.n_tiles == 1
        assert not plan.needs_reduction
        assert plan.spatial_utilization == pytest.approx(100 * 200 / (256 * 256))

    def test_column_split_only(self):
        plan = plan_tiling(256, 512, 256, 256)
        assert plan.n_row_tiles == 1
        assert plan.n_col_tiles == 2
        assert not plan.needs_reduction

    def test_row_split_needs_reduction(self):
        plan = plan_tiling(512, 100, 256, 256)
        assert plan.n_row_tiles == 2
        assert plan.needs_reduction
        assert plan.partials_per_output == 2

    def test_vgg16_fc1_tiling(self):
        # 25088 x 4096 weight matrix
        plan = plan_tiling(25088, 4096, 256, 256)
        assert plan.n_row_tiles == 98
        assert plan.n_col_tiles == 16
        assert plan.n_tiles == 98 * 16

    def test_exact_fit_has_full_utilization(self):
        plan = plan_tiling(512, 512, 256, 256)
        assert plan.spatial_utilization == pytest.approx(1.0)

    def test_tile_dimensions_cover_matrix(self):
        plan = plan_tiling(300, 500, 256, 256)
        assert sum(t.weights for t in plan.tiles) == 300 * 500

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            plan_tiling(0, 10)
        with pytest.raises(ValueError):
            plan_tiling(10, 10, 0, 256)

    @given(
        rows=st.integers(min_value=1, max_value=3000),
        cols=st.integers(min_value=1, max_value=3000),
    )
    @settings(max_examples=60, deadline=None)
    def test_tiling_invariants(self, rows, cols):
        """Property: tiles exactly cover the matrix, none exceeds the
        crossbar, and utilization is in (0, 1]."""
        plan = plan_tiling(rows, cols, 256, 256)
        assert sum(t.weights for t in plan.tiles) == rows * cols
        assert all(t.rows <= 256 and t.cols <= 256 for t in plan.tiles)
        assert plan.n_tiles == plan.n_row_tiles * plan.n_col_tiles
        assert 0 < plan.spatial_utilization <= 1.0

    @given(
        rows=st.integers(min_value=1, max_value=3000),
        cols=st.integers(min_value=1, max_value=3000),
        crossbar=st.sampled_from([(256, 256), (128, 64)]),
    )
    @settings(max_examples=60, deadline=None)
    def test_tile_by_index_is_the_row_major_enumeration(self, rows, cols, crossbar):
        max_rows, max_cols = crossbar
        plan = plan_tiling(rows, cols, max_rows, max_cols)
        tiles = [plan.tile(i) for i in range(plan.n_tiles)]
        assert tiles == list(plan.tiles)
        assert [(t.row_index, t.col_index) for t in tiles] == [
            (ri, ci) for ri in range(plan.n_row_tiles) for ci in range(plan.n_col_tiles)
        ]
        # the tiles of one row span the columns, those of one column the rows
        assert sum(t.cols for t in tiles[: plan.n_col_tiles]) == cols
        assert sum(t.rows for t in tiles[:: plan.n_col_tiles]) == rows
        assert sum(t.weights for t in tiles) == rows * cols
        assert all(0 < t.rows <= max_rows and 0 < t.cols <= max_cols for t in tiles)
        for outside in (-1, plan.n_tiles):
            with pytest.raises(ValueError):
                plan.tile(outside)

    def test_a_plan_is_its_four_integers(self, tiles_built):
        plan = plan_tiling(25088, 4096, 256, 256)
        assert (plan.n_tiles, plan.n_row_tiles) == (98 * 16, 98)
        assert tiles_built == []
        assert plan == plan_tiling(25088, 4096)
        assert hash(plan) == hash(plan_tiling(25088, 4096))
        assert plan.tile(17) == Tile(row_index=1, col_index=1, rows=256, cols=256)
        assert len(tiles_built) == 1


def test_tile_counts_are_exact_above_2_to_the_53():
    assert plan_tiling(2**53 + 1, 1, 2, 256).n_row_tiles == 2**52 + 1
    assert reduction_tree_width(2**53 + 1, 2**53) == 2


class TestReductionTree:
    def test_single_partial_needs_no_reduction(self):
        assert reduction_tree_width(1) == 0

    def test_up_to_max_rows_needs_one_stage(self):
        assert reduction_tree_width(2) == 1
        assert reduction_tree_width(256) == 1

    def test_beyond_max_rows_needs_two_stages(self):
        assert reduction_tree_width(257) == 2
        assert reduction_tree_width(256 * 256) == 2

    def test_invalid(self):
        with pytest.raises(ValueError):
            reduction_tree_width(0)
