"""Tensor shape metadata for the computational-graph frontend.

The performance evaluation only needs tensor *shapes* (to count weights,
operations and traffic) and occasionally concrete values (for the
functional examples), so a tensor here is a named shape with a small set of
helpers.  Shapes follow the channel-first convention without a batch
dimension: feature maps are ``(channels, height, width)`` and flat vectors
are ``(features,)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from ..errors import InvalidRequestError

if TYPE_CHECKING:  # pragma: no cover - typing only: a shape needs no numpy
    import numpy as np

__all__ = ["TensorSpec"]


@dataclass(frozen=True)
class TensorSpec:
    """Shape and precision of one tensor flowing through the graph."""

    shape: tuple[int, ...]
    bits: int = 6
    name: str = ""

    def __post_init__(self) -> None:
        if not self.shape:
            raise InvalidRequestError("shape must have at least one dimension")
        if any(int(d) <= 0 for d in self.shape):
            raise InvalidRequestError(f"all dimensions must be positive, got {self.shape}")
        if self.bits <= 0:
            raise InvalidRequestError("bits must be positive")
        object.__setattr__(self, "shape", tuple(int(d) for d in self.shape))

    @property
    def rank(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        """Number of scalar elements (exact: Python integers do not wrap)."""
        return math.prod(self.shape)

    @property
    def bits_total(self) -> int:
        """Total storage in bits."""
        return self.size * self.bits

    @property
    def is_feature_map(self) -> bool:
        """True for a (channels, height, width) tensor."""
        return self.rank == 3

    @property
    def is_vector(self) -> bool:
        return self.rank == 1

    @property
    def channels(self) -> int:
        if not self.is_feature_map:
            raise InvalidRequestError(f"tensor {self.shape} is not a feature map")
        return self.shape[0]

    @property
    def height(self) -> int:
        if not self.is_feature_map:
            raise InvalidRequestError(f"tensor {self.shape} is not a feature map")
        return self.shape[1]

    @property
    def width(self) -> int:
        if not self.is_feature_map:
            raise InvalidRequestError(f"tensor {self.shape} is not a feature map")
        return self.shape[2]

    def flattened(self) -> "TensorSpec":
        """The tensor reshaped to a flat vector."""
        return TensorSpec((self.size,), bits=self.bits, name=self.name)

    def with_name(self, name: str) -> "TensorSpec":
        return TensorSpec(self.shape, bits=self.bits, name=name)

    def zeros(self) -> np.ndarray:
        """A concrete zero array with this shape (for functional runs)."""
        import numpy as np

        return np.zeros(self.shape, dtype=float)

    def random(self, rng: np.random.Generator) -> np.ndarray:
        """A concrete uniform-[0,1) array with this shape."""
        return rng.random(self.shape)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        dims = "x".join(str(d) for d in self.shape)
        return f"{self.name or 'tensor'}[{dims}]"
