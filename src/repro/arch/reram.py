"""ReRAM cell and crossbar device models.

The crossbar computes an analog vector-matrix multiplication ``I = G V``
where ``G`` is the conductance matrix programmed into the cells.  This
module models:

* quantisation of weights onto discrete conductance levels,
* the two multi-cell weight-composition schemes compared in the paper
  (the conventional *splice* method and the proposed *add* method),
* programming (device) variation as additive Gaussian noise on each cell's
  conductance, with the measured deviation from fabricated devices [Yao17].

The variation analysis of Section 7.2 (normalized deviation of splice vs
add) lives in :mod:`repro.variation.representation`; this module provides
the concrete numeric crossbars those analyses are validated against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidRequestError

__all__ = [
    "ReRAMCellModel",
    "WeightComposition",
    "SpliceComposition",
    "AddComposition",
    "ReRAMCrossbar",
    "make_composition",
]


@dataclass(frozen=True)
class ReRAMCellModel:
    """Model of a single multi-level ReRAM cell.

    Attributes
    ----------
    bits:
        Number of bits stored per cell (the paper uses 4-bit, 16-level cells).
    g_min, g_max:
        Conductance range in siemens.  Only the *relative* range matters for
        the computation; defaults follow published HfOx device data.
    sigma:
        Standard deviation of the programmed conductance, expressed as a
        fraction of the full conductance range (cycle-to-cycle and
        device-to-device variation combined).  The default 0.04 follows the
        measured variation of fabricated devices used by the paper [Yao17].
    """

    bits: int = 4
    g_min: float = 1e-6
    g_max: float = 1e-4
    sigma: float = 0.04

    def __post_init__(self) -> None:
        if self.bits <= 0:
            raise InvalidRequestError("bits must be positive")
        if self.g_max <= self.g_min:
            raise InvalidRequestError("g_max must exceed g_min")
        if self.sigma < 0:
            raise InvalidRequestError("sigma must be non-negative")

    @property
    def levels(self) -> int:
        """Number of programmable conductance levels."""
        return 1 << self.bits

    @property
    def g_range(self) -> float:
        """Full programmable conductance range."""
        return self.g_max - self.g_min

    @property
    def sigma_conductance(self) -> float:
        """Standard deviation of the programmed conductance (siemens)."""
        return self.sigma * self.g_range

    def quantize_fraction(self, fraction: np.ndarray) -> np.ndarray:
        """Quantise values in [0, 1] to the nearest programmable level.

        Returns the quantised *fraction* (still in [0, 1]).
        """
        frac = np.clip(np.asarray(fraction, dtype=float), 0.0, 1.0)
        steps = self.levels - 1
        return np.round(frac * steps) / steps

    def program(
        self,
        fraction: np.ndarray,
        rng: np.random.Generator | None = None,
    ) -> np.ndarray:
        """Program cells to the given fractional values and return the
        resulting conductances, including programming variation.

        Parameters
        ----------
        fraction:
            Target values in [0, 1] (already quantised or not).
        rng:
            Random generator for variation; ``None`` programs ideal cells.
        """
        target = self.g_min + self.quantize_fraction(fraction) * self.g_range
        if rng is None or self.sigma == 0.0:
            return target
        noise = rng.normal(0.0, self.sigma_conductance, size=target.shape)
        return np.clip(target + noise, 0.0, None)


class WeightComposition:
    """Strategy for composing several physical cells into one logical weight.

    Subclasses implement the *splice* and *add* methods of Section 7.2.
    A composition maps logical weights in [0, 1] to per-cell target
    fractions (``cell_fractions``: shape ``weights.shape + (n_cells,)``),
    combines per-cell values back into weights on the [0, 1] scale
    (``compose``: last axis = cells), and states the paper's *normalized
    deviation*: the composed weight's standard deviation over its range
    (``normalized_deviation``) and the composed weight's effective number
    of representable bits (``weight_bits``).
    """

    def __init__(self, cell: ReRAMCellModel, n_cells: int):
        if n_cells <= 0:
            raise InvalidRequestError("n_cells must be positive")
        self.cell = cell
        self.n_cells = n_cells

    @property
    def weight_levels(self) -> int:
        return 1 << self.weight_bits

    def realize(
        self, weights: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Quantise, program (with variation) and read back logical weights."""
        fractions = self.cell_fractions(weights)
        programmed = self.cell.program(fractions, rng=rng)
        normalized = (programmed - self.cell.g_min) / self.cell.g_range
        return self.compose(normalized)


class SpliceComposition(WeightComposition):
    """The conventional *splice* method.

    Each of the ``n`` cells stores a different bit-slice of the weight; the
    composed weight is ``sum_i 2**(bits*i) * cell_i``.  Precision grows with
    the number of cells but the normalized deviation barely improves because
    the most-significant cell dominates.
    """

    @property
    def weight_bits(self) -> int:
        return self.cell.bits * self.n_cells

    def _radix_weights(self) -> np.ndarray:
        b = self.cell.bits
        return np.array([float(1 << (b * i)) for i in range(self.n_cells)])

    def cell_fractions(self, weights: np.ndarray) -> np.ndarray:
        weights = np.clip(np.asarray(weights, dtype=float), 0.0, 1.0)
        total_levels = float(self.weight_levels - 1)
        cell_levels = self.cell.levels
        fractions = np.empty(weights.shape + (self.n_cells,), dtype=float)
        # Extract base-L digits most-significant-first in floating point so
        # very deep splices (whose level count exceeds integer range) degrade
        # gracefully instead of overflowing.
        remaining = np.round(weights * total_levels)
        for i in range(self.n_cells - 1, -1, -1):
            base = float(cell_levels) ** i
            digit = np.clip(np.floor(remaining / base), 0, cell_levels - 1)
            remaining = remaining - digit * base
            fractions[..., i] = digit / (cell_levels - 1)
        return fractions

    def compose(self, cell_values: np.ndarray) -> np.ndarray:
        cell_values = np.asarray(cell_values, dtype=float)
        radix = self._radix_weights() * (self.cell.levels - 1)
        total_levels = self.weight_levels - 1
        return np.tensordot(cell_values, radix, axes=([-1], [0])) / total_levels

    def normalized_deviation(self) -> float:
        # sigma of sum_i (2^(b*i) (L-1) c_i) / (2^(b*n) - 1), with each cell's
        # normalized value having deviation `sigma`.
        b = self.cell.bits
        radix = np.array([float(1 << (b * i)) for i in range(self.n_cells)])
        scale = (self.cell.levels - 1) * radix
        total_levels = self.weight_levels - 1
        sigma = self.cell.sigma * np.sqrt(np.sum(scale**2)) / total_levels
        return float(sigma)


class AddComposition(WeightComposition):
    """The proposed *add* method.

    All cells target the same fraction of the weight and their conductances
    are summed with equal coefficients, so the variance averages out: the
    normalized deviation shrinks by ``sqrt(n_cells)`` (Cauchy bound).
    The representable precision stays at the per-cell precision (the paper
    raises effective precision by using 16-level cells and large windows).
    """

    @property
    def weight_bits(self) -> int:
        return self.cell.bits

    def cell_fractions(self, weights: np.ndarray) -> np.ndarray:
        weights = np.clip(np.asarray(weights, dtype=float), 0.0, 1.0)
        return np.repeat(weights[..., None], self.n_cells, axis=-1)

    def compose(self, cell_values: np.ndarray) -> np.ndarray:
        cell_values = np.asarray(cell_values, dtype=float)
        return cell_values.mean(axis=-1)

    def normalized_deviation(self) -> float:
        return float(self.cell.sigma / np.sqrt(self.n_cells))


def make_composition(
    method: str, cell: ReRAMCellModel, n_cells: int
) -> WeightComposition:
    """Factory for weight-composition strategies (``"splice"`` or ``"add"``)."""
    methods = {"splice": SpliceComposition, "add": AddComposition}
    try:
        cls = methods[method]
    except KeyError:
        raise InvalidRequestError(
            f"unknown composition method {method!r}; expected one of {sorted(methods)}"
        ) from None
    return cls(cell, n_cells)


class ReRAMCrossbar:
    """A programmed ReRAM crossbar that evaluates ``I = G V`` numerically.

    The crossbar stores a *signed* logical weight matrix by using two
    physical columns (positive / negative) per logical column, exactly as
    the FPSA PE does.  Weights are quantised and (optionally) perturbed by
    device variation at programming time.
    """

    def __init__(
        self,
        weights: np.ndarray,
        cell: ReRAMCellModel | None = None,
        composition: str = "add",
        cells_per_weight: int = 8,
        rng: np.random.Generator | None = None,
    ):
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2:
            raise InvalidRequestError("weights must be a 2-D matrix (rows x logical cols)")
        self.cell = cell if cell is not None else ReRAMCellModel()
        self.composition = make_composition(composition, self.cell, cells_per_weight)
        self.rows, self.logical_cols = weights.shape

        scale = np.max(np.abs(weights))
        self.weight_scale = float(scale) if scale > 0 else 1.0
        normalized = weights / self.weight_scale
        positive = np.clip(normalized, 0.0, None)
        negative = np.clip(-normalized, 0.0, None)
        self._positive = self.composition.realize(positive, rng=rng)
        self._negative = self.composition.realize(negative, rng=rng)

    @property
    def effective_weights(self) -> np.ndarray:
        """The signed weight matrix actually realised by the device
        (after quantisation and variation), in the original weight scale."""
        return (self._positive - self._negative) * self.weight_scale

    def matvec(self, inputs: np.ndarray) -> np.ndarray:
        """Analog vector-matrix product with the realised weights.

        ``inputs`` has shape (rows,) or (batch, rows); returns the signed
        column outputs in the original weight scale.
        """
        inputs = np.asarray(inputs, dtype=float)
        if inputs.shape[-1] != self.rows:
            raise InvalidRequestError(
                f"input length {inputs.shape[-1]} does not match crossbar rows {self.rows}"
            )
        return inputs @ self.effective_weights
