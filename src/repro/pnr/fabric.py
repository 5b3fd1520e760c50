"""The island-style fabric: a grid of function-block sites.

The FPSA chip arranges its function blocks (PEs, SMBs, CLBs) in a 2-D grid;
the reconfigurable routing network (connection boxes and switch boxes built
from ReRAM cells, stacked over the blocks in metal layers M5-M9) runs in
the channels between the sites.  The placer assigns netlist blocks to
sites; the router uses the channels.

I/O blocks (the chip's input/output interfaces) sit on the periphery.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..arch.params import ceil_div
from ..errors import InvalidRequestError
from ..mapper.netlist import BlockType, FunctionBlockNetlist

__all__ = ["Site", "FabricGrid"]


@dataclass(frozen=True)
class Site:
    """One placement site of the fabric."""

    x: int
    y: int
    io: bool = False

    @property
    def position(self) -> tuple[int, int]:
        return (self.x, self.y)


class FabricGrid:
    """A ``width x height`` grid of block sites plus peripheral I/O sites."""

    def __init__(self, width: int, height: int):
        if width <= 0 or height <= 0:
            raise InvalidRequestError("fabric dimensions must be positive")
        self.width = width
        self.height = height
        self._sites = [Site(x, y) for x in range(width) for y in range(height)]
        self._io_sites = self._build_io_sites()

    def _build_io_sites(self) -> list[Site]:
        sites = []
        for x in range(self.width):
            sites.append(Site(x, -1, io=True))
            sites.append(Site(x, self.height, io=True))
        for y in range(self.height):
            sites.append(Site(-1, y, io=True))
            sites.append(Site(self.width, y, io=True))
        return sites

    @classmethod
    def for_netlist(
        cls, netlist: FunctionBlockNetlist, aspect_ratio: float = 1.0, slack: float = 1.1
    ) -> "FabricGrid":
        """Size a fabric large enough to hold every non-I/O block of a netlist."""
        n_blocks = len(netlist.blocks) - netlist.count(BlockType.IO)
        n_sites = max(1, math.ceil(n_blocks * slack))
        width = max(1, math.ceil(math.sqrt(n_sites * aspect_ratio)))
        height = max(1, ceil_div(n_sites, width))
        return cls(width, height)

    @property
    def n_sites(self) -> int:
        return self.width * self.height

    def sites(self) -> list[Site]:
        """All core (non-I/O) sites."""
        return list(self._sites)

    def io_sites(self) -> list[Site]:
        """All peripheral I/O sites."""
        return list(self._io_sites)

    def contains(self, x: int, y: int) -> bool:
        return 0 <= x < self.width and 0 <= y < self.height

    def site(self, x: int, y: int) -> Site:
        if not self.contains(x, y):
            raise InvalidRequestError(f"({x}, {y}) is outside the {self.width}x{self.height} fabric")
        return self._sites[x * self.height + y]

    @staticmethod
    def manhattan(a: tuple[int, int], b: tuple[int, int]) -> int:
        return abs(a[0] - b[0]) + abs(a[1] - b[1])
