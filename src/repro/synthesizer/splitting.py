"""Weight-matrix splitting (tiling) onto fixed-size crossbars.

Large weight matrices cannot fit a single 256x256 crossbar, so the neural
synthesizer splits them into tiles.  Splitting along the *column* dimension
is free (each tile produces a disjoint slice of the outputs); splitting
along the *row* dimension produces partial sums that must be added by
reduction core-ops, which this module also sizes.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.params import ceil_div
from ..errors import SynthesisError

__all__ = ["Tile", "TilePlan", "plan_tiling", "reduction_tree_width"]


@dataclass(frozen=True)
class Tile:
    """One crossbar-sized tile of a weight matrix."""

    row_index: int
    col_index: int
    rows: int
    cols: int

    @property
    def weights(self) -> int:
        return self.rows * self.cols


@dataclass(frozen=True)
class TilePlan:
    """How one logical weight matrix maps onto crossbar tiles.

    The plan is its four integers; every tile is arithmetic on them
    (:meth:`tile`), so building a plan costs the same for any matrix.
    """

    matrix_rows: int
    matrix_cols: int
    max_rows: int
    max_cols: int

    @property
    def n_row_tiles(self) -> int:
        return ceil_div(self.matrix_rows, self.max_rows)

    @property
    def n_col_tiles(self) -> int:
        return ceil_div(self.matrix_cols, self.max_cols)

    @property
    def n_tiles(self) -> int:
        return self.n_row_tiles * self.n_col_tiles

    def tile(self, index: int) -> Tile:
        """The ``index``-th tile in row-major order."""
        if not 0 <= index < self.n_tiles:
            raise SynthesisError(
                f"tile index {index} outside range({self.n_tiles}) of a "
                f"{self.matrix_rows}x{self.matrix_cols} matrix"
            )
        ri, ci = divmod(index, self.n_col_tiles)
        return Tile(
            row_index=ri,
            col_index=ci,
            rows=min(self.max_rows, self.matrix_rows - ri * self.max_rows),
            cols=min(self.max_cols, self.matrix_cols - ci * self.max_cols),
        )

    @property
    def tiles(self) -> tuple[Tile, ...]:
        """Every tile, row-major (derived on each read; enumerate it once)."""
        return tuple(self.tile(i) for i in range(self.n_tiles))

    @property
    def needs_reduction(self) -> bool:
        """True when row splitting produced partial sums that must be added."""
        return self.n_row_tiles > 1

    @property
    def partials_per_output(self) -> int:
        """Number of partial sums per output element (= row tiles)."""
        return self.n_row_tiles

    @property
    def total_weights(self) -> int:
        return self.matrix_rows * self.matrix_cols

    @property
    def crossbar_capacity_used(self) -> int:
        """Total crossbar weight capacity consumed by the tiles."""
        return self.n_tiles * self.max_rows * self.max_cols

    @property
    def spatial_utilization(self) -> float:
        """Fraction of the consumed crossbar capacity holding real weights.

        This is exactly the *spatial utilization* loss of Section 3: the
        fixed crossbar size cannot match arbitrary matrix shapes.
        """
        used = self.crossbar_capacity_used
        if used == 0:
            return 0.0
        return self.total_weights / used


def plan_tiling(
    matrix_rows: int,
    matrix_cols: int,
    max_rows: int = 256,
    max_cols: int = 256,
) -> TilePlan:
    """Split a ``matrix_rows x matrix_cols`` weight matrix into crossbar tiles."""
    if matrix_rows <= 0 or matrix_cols <= 0:
        raise SynthesisError("matrix dimensions must be positive")
    if max_rows <= 0 or max_cols <= 0:
        raise SynthesisError("crossbar dimensions must be positive")
    return TilePlan(
        matrix_rows=matrix_rows,
        matrix_cols=matrix_cols,
        max_rows=max_rows,
        max_cols=max_cols,
    )


def reduction_tree_width(n_partials: int, max_rows: int = 256) -> int:
    """Depth of the reduction tree needed to sum ``n_partials`` partial sums.

    A single reduction core-op can add up to ``fan_in`` partial sums per
    output as long as ``fan_in * outputs_per_unit`` rows fit in a crossbar;
    with one output per unit the fan-in is bounded by ``max_rows``.  The
    returned value is the number of sequential reduction stages.
    """
    if n_partials <= 0:
        raise SynthesisError("n_partials must be positive")
    if n_partials == 1:
        return 0
    stages = 0
    remaining = n_partials
    while remaining > 1:
        remaining = ceil_div(remaining, max_rows)
        stages += 1
    return stages
