"""The routing-resource graph (RRG) of the island-style fabric.

Nodes represent output pins (OPIN), input pins (IPIN) and wire segments in
the horizontal (H) and vertical (V) channels; edges represent the
programmable ReRAM switches of the connection boxes (pin <-> wire) and
switch boxes (wire <-> wire).  The router finds pin-to-pin paths through
this graph; the number of tracks per channel (``channel_width``) bounds how
many nets can cross the same channel.

Wire segments have unit length (one block span), matching mrFPGA's
single-length segments; the disjoint switch-box pattern connects track ``t``
only to track ``t`` of the adjacent channels.  Such a fabric is
translation-invariant, so the :class:`CompiledRRGraph` the router searches
stores no node and no edge: it keeps three flat per-node lists (``x``,
``y``, ``base_cost``) and computes the rest from a node's id when asked —
:meth:`_Geometry.neighbors_of` is the one neighbour rule and
:meth:`_Geometry.node` decodes an id into an :class:`RRNode`.  The tests
keep an object-level adjacency dict as the reference both are checked
against; nothing in the compile flow builds one.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InvalidRequestError
from .fabric import FabricGrid

__all__ = ["RRNode", "CompiledRRGraph", "RoutingResourceGraph"]


@dataclass(frozen=True)
class RRNode:
    """One routing-resource node.

    ``kind`` is one of ``"OPIN"``, ``"IPIN"``, ``"H"`` (horizontal wire) or
    ``"V"`` (vertical wire).  Pins carry ``track = -1``.
    """

    kind: str
    x: int
    y: int
    track: int = -1

    @property
    def is_wire(self) -> bool:
        return self.kind in ("H", "V")


#: congestion-free cost of crossing a wire segment / entering a pin.
WIRE_BASE_COST = 1.0
PIN_BASE_COST = 0.5


class _Geometry:
    """The id arithmetic of a ``(width, height, tracks)`` fabric.

    Node ids are ``H(x, y, t)`` and ``V(x, y, t)`` interleaved over ``x``,
    ``y``, ``t`` — wire
    ``2 * (((x + 1) * n_ch_y + (y + 1)) * tracks + t) + (kind == "V")`` —
    then ``OPIN(x, y)`` / ``IPIN(x, y)`` over the ``(width + 2) x
    (height + 2)`` pin sites.
    """

    __slots__ = ("n_ch_x", "n_ch_y", "tracks", "n_wires", "n_nodes")

    def __init__(self, width: int, height: int, tracks: int):
        self.n_ch_x = width + 1
        self.n_ch_y = height + 1
        self.tracks = tracks
        self.n_wires = 2 * self.n_ch_x * self.n_ch_y * tracks
        self.n_nodes = self.n_wires + 2 * (width + 2) * (height + 2)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, _Geometry) and (
            (self.n_ch_x, self.n_ch_y, self.tracks) == (other.n_ch_x, other.n_ch_y, other.tracks)
        )

    def node(self, i: int) -> RRNode:
        """The node of id ``i``: what a reader prints or judges on
        coordinates; the router never builds one."""
        if i < self.n_wires:
            cell, track = divmod(i >> 1, self.tracks)
            cx, cy = divmod(cell, self.n_ch_y)
            return RRNode("V" if i & 1 else "H", cx - 1, cy - 1, track)
        px, py = divmod((i - self.n_wires) >> 1, self.n_ch_y + 1)
        return RRNode("IPIN" if i & 1 else "OPIN", px - 1, py - 1)

    def pin_id(self, kind: str, x: int, y: int) -> int:
        """The id of the ``"OPIN"`` / ``"IPIN"`` of block site ``(x, y)``."""
        if not (-1 <= x < self.n_ch_x and -1 <= y < self.n_ch_y):
            raise KeyError(f"node {RRNode(kind, x, y)} is not in the routing-resource graph")  # repro-lint: disable=ERR001
        return self.n_wires + 2 * ((x + 1) * (self.n_ch_y + 1) + y + 1) + (kind == "IPIN")

    def opin_channels(self, opin: int) -> list[range]:
        """The wire ids of the (up to four) channels around an output pin,
        one ``range`` over all tracks per channel: ``H(x, y)`` above and
        ``V(x, y)`` right of the block, ``V(x - 1, y)`` left of it,
        ``H(x, y - 1)`` below — those the fabric has."""
        n_ch_y, span = self.n_ch_y, 2 * self.tracks
        px, py = divmod((opin - self.n_wires) >> 1, n_ch_y + 1)
        firsts = []
        if py < n_ch_y:
            if px < self.n_ch_x:
                firsts += [(px * n_ch_y + py) * span, (px * n_ch_y + py) * span + 1]
            if px:
                firsts.append(((px - 1) * n_ch_y + py) * span + 1)
        if py and px < self.n_ch_x:
            firsts.append((px * n_ch_y + py - 1) * span)
        return [range(first, first + span, 2) for first in firsts]

    def neighbors_of(self, u: int) -> list[int]:
        """The neighbour rule: the out-edges of node ``u``.

        A wire crosses to the other kind in place (``u ^ 1``), continues
        on its track into the channels at ``y ± 1`` (``2 * tracks`` ids
        away) and ``x ± 1`` (``2 * n_ch_y * tracks`` away) where the fabric
        has them, and enters the input pins of its two blocks; an output
        pin drives every track of :meth:`opin_channels`; an input pin
        drives nothing.
        """
        n_wires, n_ch_y = self.n_wires, self.n_ch_y
        if u >= n_wires:
            if u & 1:  # n_wires is even: the odd pins are the input pins
                return []
            return [w for channel in self.opin_channels(u) for w in channel]
        row = 2 * self.tracks
        col = row * n_ch_y
        cx, cy = divmod(u // row, n_ch_y)
        out = [u ^ 1]
        if cy:
            out.append(u - row)
        if cy + 1 < n_ch_y:
            out.append(u + row)
        if cx:
            out.append(u - col)
        if u + col < n_wires:
            out.append(u + col)
        # H(x, y) enters blocks (x, y) and (x, y + 1), V(x, y) enters
        # (x, y) and (x + 1, y); a column of pin sites has n_ch_y + 1 rows
        ipin = n_wires + 2 * (cx * (n_ch_y + 1) + cy) + 1
        out.append(ipin)
        out.append(ipin + (2 * (n_ch_y + 1) if u & 1 else 2))
        return out


class CompiledRRGraph:
    """Integer-indexed view of the RRG for the router's hot loop.

    Every wire (``H`` even, ``V`` odd) comes before every pin, so
    ``id < n_wires`` is "is a wire", and any computation keyed on ids (heap
    tie-breaking in particular) is reproducible across processes.  Only the
    per-node ``x``, ``y`` and ``base_cost`` are stored, as plain Python
    lists, which the heapq search indexes faster than arrays; edges and
    nodes are :attr:`geometry`'s arithmetic.
    """

    __slots__ = ("n_wires", "base_cost", "x", "y", "geometry")

    @classmethod
    def from_geometry(cls, width: int, height: int, tracks: int) -> "CompiledRRGraph":
        """The compiled graph of a ``(width, height, tracks)`` fabric."""
        if width <= 0 or height <= 0:
            raise InvalidRequestError("fabric dimensions must be positive")
        if tracks <= 0:
            raise InvalidRequestError("channel_width must be positive")
        self = cls.__new__(cls)
        self.geometry = geometry = _Geometry(width, height, tracks)
        self.n_wires = n_wires = geometry.n_wires
        n_nodes = geometry.n_nodes
        self.base_cost = [WIRE_BASE_COST] * n_wires + [PIN_BASE_COST] * (n_nodes - n_wires)
        n_ch_x, n_ch_y = width + 1, height + 1
        self.x = (
            np.repeat(np.arange(-1, width), 2 * n_ch_y * tracks).tolist()
            + np.repeat(np.arange(-1, width + 1), 2 * (height + 2)).tolist()
        )
        self.y = (
            np.tile(np.repeat(np.arange(-1, height), 2 * tracks), n_ch_x).tolist()
            + np.tile(np.repeat(np.arange(-1, height + 1), 2), width + 2).tolist()
        )
        return self

    def __len__(self) -> int:
        return self.geometry.n_nodes


class RoutingResourceGraph:
    """The routing resources of a fabric at one channel width.

    The compile flow only ever calls :meth:`compiled`, the integer view
    the router searches.
    """

    def __init__(self, fabric: FabricGrid, channel_width: int = 16):
        if channel_width <= 0:
            raise InvalidRequestError("channel_width must be positive")
        self.fabric = fabric
        self.channel_width = channel_width
        self._compiled: CompiledRRGraph | None = None

    def compiled(self) -> CompiledRRGraph:
        """The integer-indexed view of this graph (built once, cached)."""
        if self._compiled is None:
            self._compiled = CompiledRRGraph.from_geometry(
                self.fabric.width, self.fabric.height, self.channel_width
            )
        return self._compiled
