"""The routing-resource graph (RRG) of the island-style fabric.

Nodes represent output pins (OPIN), input pins (IPIN) and wire segments in
the horizontal (H) and vertical (V) channels; edges represent the
programmable ReRAM switches of the connection boxes (pin <-> wire) and
switch boxes (wire <-> wire).  The router finds pin-to-pin paths through
this graph; the number of tracks per channel (``channel_width``) bounds how
many nets can cross the same channel.

Wire segments have unit length (one block span), matching mrFPGA's
single-length segments; the disjoint switch-box pattern connects track ``t``
only to track ``t`` of the adjacent channels.

The graph the router actually searches is the :class:`CompiledRRGraph`,
which :meth:`CompiledRRGraph.from_geometry` assembles directly from integer
index formulas — no :class:`RRNode` is built, hashed or looked up; its
``nodes`` make one when indexed — in the exact node-id order the dict
construction would produce, so heap tie-breaking (and therefore every
routing artifact) does not depend on which way the graph was built.  The
object-level adjacency of :class:`RoutingResourceGraph` is built lazily on
first access; the compile flow never touches it.
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


class _GeometryNodes:
    """The nodes of a ``(width, height, tracks)`` fabric as id arithmetic.

    A read-only sequence equal to the node list of the dict-built graph:
    ``H(x, y, t)`` and ``V(x, y, t)`` interleaved over ``x``, ``y``, ``t``,
    then ``OPIN(x, y)`` / ``IPIN(x, y)`` over the pin sites.  An
    :class:`RRNode` is only built when one is indexed.
    """

    __slots__ = ("n_ch_y", "tracks", "n_wires", "n_pin_rows", "n_nodes")

    def __init__(self, width: int, height: int, tracks: int):
        self.n_ch_y = height + 1
        self.tracks = tracks
        self.n_wires = 2 * (width + 1) * (height + 1) * tracks
        self.n_pin_rows = height + 2
        self.n_nodes = self.n_wires + 2 * (width + 2) * (height + 2)

    def __len__(self) -> int:
        return self.n_nodes

    def __getitem__(self, i: int) -> RRNode:
        if not 0 <= i < self.n_nodes:
            raise IndexError(i)
        if i < self.n_wires:
            cell, track = divmod(i >> 1, self.tracks)
            cx, cy = divmod(cell, self.n_ch_y)
            return RRNode("V" if i & 1 else "H", cx - 1, cy - 1, track)
        px, py = divmod((i - self.n_wires) >> 1, self.n_pin_rows)
        return RRNode("IPIN" if i & 1 else "OPIN", px - 1, py - 1)

    def __eq__(self, other: object) -> bool:
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    def id_of(self, node: RRNode) -> int | None:
        """The id of ``node``, ``None`` when it is not in the graph."""
        if node.kind in ("H", "V"):
            i = 2 * (
                ((node.x + 1) * self.n_ch_y + node.y + 1) * self.tracks + node.track
            ) + (node.kind == "V")
        else:
            i = (
                self.n_wires
                + 2 * ((node.x + 1) * self.n_pin_rows + node.y + 1)
                + (node.kind == "IPIN")
            )
        # the round trip rejects out-of-range coordinates that alias an id
        return i if 0 <= i < self.n_nodes and self[i] == node else None


class CompiledRRGraph:
    """Integer-indexed view of the RRG for the router's hot loop.

    Node ids follow the graph's deterministic construction order — every
    wire (``H`` even, ``V`` odd) before every pin, so ``id < n_wires`` is
    "is a wire" — and any computation keyed on ids (heap tie-breaking in
    particular) is reproducible across processes, unlike iteration over
    sets of :class:`RRNode`, whose order depends on randomized string
    hashing.

    Adjacency (``neighbors``) and the per-node attributes are plain
    Python lists, which the heapq search indexes faster than arrays.
    """

    __slots__ = ("nodes", "_id_of", "neighbors", "n_wires", "base_cost", "x", "y")

    def __init__(self, adjacency: dict[RRNode, list[RRNode]]):
        self.nodes: list[RRNode] | _GeometryNodes = list(adjacency)
        ids = {node: i for i, node in enumerate(self.nodes)}
        self._id_of = ids.get
        self.neighbors: list[list[int]] = [
            [ids[n] for n in adjacency[node]] for node in self.nodes
        ]
        self.n_wires = sum(1 for node in self.nodes if node.is_wire)
        self.base_cost: list[float] = [
            WIRE_BASE_COST if node.is_wire else PIN_BASE_COST for node in self.nodes
        ]
        self.x: list[int] = [node.x for node in self.nodes]
        self.y: list[int] = [node.y for node in self.nodes]

    @classmethod
    def from_geometry(
        cls, width: int, height: int, tracks: int
    ) -> "CompiledRRGraph":
        """Build the compiled graph straight from the fabric geometry.

        Node ids, edge set and per-node attributes are identical to
        compiling a dict-built :class:`RoutingResourceGraph` for the same
        ``(width, height, tracks)`` — only the construction cost differs:
        everything is index arithmetic, and ``nodes`` builds an
        :class:`RRNode` only when one is asked for.
        """
        if width <= 0 or height <= 0:
            raise InvalidRequestError("fabric dimensions must be positive")
        if tracks <= 0:
            raise InvalidRequestError("channel_width must be positive")
        n_ch_x, n_ch_y = width + 1, height + 1
        n_pin_cols, n_pin_rows = width + 2, height + 2

        self = cls.__new__(cls)
        self.nodes = nodes = _GeometryNodes(width, height, tracks)
        self._id_of = nodes.id_of
        self.n_wires = n_wires = nodes.n_wires
        n_nodes = len(nodes)
        self.base_cost = [WIRE_BASE_COST] * n_wires + [PIN_BASE_COST] * (n_nodes - n_wires)
        self.x = (
            np.repeat(np.arange(-1, width), 2 * n_ch_y * tracks).tolist()
            + np.repeat(np.arange(-1, width + 1), 2 * n_pin_rows).tolist()
        )
        self.y = (
            np.tile(np.repeat(np.arange(-1, height), 2 * tracks), n_ch_x).tolist()
            + np.tile(np.repeat(np.arange(-1, height + 1), 2), n_pin_cols).tolist()
        )

        # wire ids: H(x, y, t) = 2*(((x+1)*n_ch_y + (y+1))*tracks + t), V = H + 1
        cx, cy, tt = np.meshgrid(
            np.arange(n_ch_x), np.arange(n_ch_y), np.arange(tracks),
            indexing="ij",
        )
        h = 2 * ((cx * n_ch_y + cy) * tracks + tt)
        v = h + 1

        src_parts: list[np.ndarray] = []
        dst_parts: list[np.ndarray] = []

        def bidir(a: np.ndarray, b: np.ndarray) -> None:
            src_parts.extend((a.ravel(), b.ravel()))
            dst_parts.extend((b.ravel(), a.ravel()))

        # switch boxes: same-track H <-> V at every channel intersection,
        # straight continuations while the next segment exists
        bidir(h, v)
        bidir(h[:-1], h[1:])  # x + 1 < width
        bidir(v[:-1], v[1:])
        bidir(h[:, :-1], h[:, 1:])  # y + 1 < height
        bidir(v[:, :-1], v[:, 1:])

        # connection boxes: every block pin reaches all tracks of the four
        # surrounding channels (those that exist)
        px, py, pt = np.meshgrid(
            np.arange(n_pin_cols), np.arange(n_pin_rows), np.arange(tracks),
            indexing="ij",
        )
        pin_base = n_wires + 2 * (px * n_pin_rows + py)
        opin, ipin = pin_base, pin_base + 1

        def wire_at(kind_offset: int, wx: np.ndarray, wy: np.ndarray) -> np.ndarray:
            return 2 * ((wx * n_ch_y + wy) * tracks + pt) + kind_offset

        # (wire coordinates here are channel indices cx = x + 1, cy = y + 1)
        for kind_offset, wx, wy in (
            (0, px, py),          # H(x, y, t): channel above
            (0, px, py - 1),      # H(x, y - 1, t): channel below
            (1, px, py),          # V(x, y, t): channel to the right
            (1, px - 1, py),      # V(x - 1, y, t): channel to the left
        ):
            exists = (
                (wx >= 0) & (wx < n_ch_x) & (wy >= 0) & (wy < n_ch_y)
            )
            wire = wire_at(kind_offset, np.clip(wx, 0, n_ch_x - 1),
                           np.clip(wy, 0, n_ch_y - 1))
            src_parts.append(opin[exists])
            dst_parts.append(wire[exists])
            src_parts.append(wire[exists])
            dst_parts.append(ipin[exists])

        src = np.concatenate(src_parts)
        dst = np.concatenate(dst_parts)
        flat = dst[np.argsort(src, kind="stable")].tolist()
        ends = np.cumsum(np.bincount(src, minlength=n_nodes)).tolist()
        self.neighbors = [flat[a:b] for a, b in zip([0] + ends, ends)]
        return self

    def __len__(self) -> int:
        return len(self.nodes)

    def node_id(self, node: RRNode) -> int:
        i = self._id_of(node)
        if i is None:
            raise KeyError(f"node {node} is not in the routing-resource graph")  # repro-lint: disable=ERR001
        return i


class RoutingResourceGraph:
    """Adjacency structure over :class:`RRNode` objects.

    The object-level adjacency dict exists for inspection and tests; it is
    built lazily on first access.  The compile flow only ever calls
    :meth:`compiled`, which assembles the integer-indexed graph directly
    from the geometry.
    """

    def __init__(self, fabric: FabricGrid, channel_width: int = 16):
        if channel_width <= 0:
            raise InvalidRequestError("channel_width must be positive")
        self.fabric = fabric
        self.channel_width = channel_width
        self._lazy_adjacency: dict[RRNode, list[RRNode]] | None = None
        self._compiled: CompiledRRGraph | None = None

    # ------------------------------------------------------------ construction
    @property
    def _adjacency(self) -> dict[RRNode, list[RRNode]]:
        if self._lazy_adjacency is None:
            self._lazy_adjacency = {}
            self._build()
        return self._lazy_adjacency

    def _add_edge(self, a: RRNode, b: RRNode) -> None:
        self._lazy_adjacency.setdefault(a, []).append(b)

    def _add_bidirectional(self, a: RRNode, b: RRNode) -> None:
        self._add_edge(a, b)
        self._add_edge(b, a)

    def _build(self) -> None:
        fabric = self.fabric
        width, height, tracks = fabric.width, fabric.height, self.channel_width
        adjacency = self._lazy_adjacency

        # wire nodes: H(x, y, t) runs along the channel above row y between
        # columns x and x+1; V(x, y, t) runs along the channel right of
        # column x between rows y and y+1.  Channels exist on all four sides
        # of the core grid (indices -1 .. width/height - 1).
        for x in range(-1, width):
            for y in range(-1, height):
                for t in range(tracks):
                    h = RRNode("H", x, y, t)
                    v = RRNode("V", x, y, t)
                    adjacency.setdefault(h, [])
                    adjacency.setdefault(v, [])

        # switch boxes (disjoint pattern): at each channel intersection the
        # same-track horizontal and vertical wires interconnect, and wires
        # continue straight into the next segment.
        for x in range(-1, width):
            for y in range(-1, height):
                for t in range(tracks):
                    h = RRNode("H", x, y, t)
                    v = RRNode("V", x, y, t)
                    self._add_bidirectional(h, v)
                    if x + 1 < width:
                        self._add_bidirectional(h, RRNode("H", x + 1, y, t))
                        self._add_bidirectional(v, RRNode("V", x + 1, y, t))
                    if y + 1 < height:
                        self._add_bidirectional(h, RRNode("H", x, y + 1, t))
                        self._add_bidirectional(v, RRNode("V", x, y + 1, t))

        # connection boxes: every block pin reaches all tracks of the
        # channels on its four sides (the paper's CBs surround each block).
        for x in range(-1, width + 1):
            for y in range(-1, height + 1):
                in_core = fabric.contains(x, y)
                on_io_ring = (
                    (-1 <= x <= width) and (-1 <= y <= height) and not in_core
                    and (x in (-1, width) or y in (-1, height))
                )
                if not (in_core or on_io_ring):
                    continue
                opin = RRNode("OPIN", x, y)
                ipin = RRNode("IPIN", x, y)
                adjacency.setdefault(opin, [])
                adjacency.setdefault(ipin, [])
                for t in range(self.channel_width):
                    for wire in self._adjacent_wires(x, y, t):
                        if wire in adjacency:
                            self._add_edge(opin, wire)
                            self._add_edge(wire, ipin)

    def _adjacent_wires(self, x: int, y: int, t: int) -> list[RRNode]:
        """Wires in the four channels surrounding block site (x, y)."""
        return [
            RRNode("H", x, y, t),        # channel above
            RRNode("H", x, y - 1, t),    # channel below
            RRNode("V", x, y, t),        # channel to the right
            RRNode("V", x - 1, y, t),    # channel to the left
        ]

    # --------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._adjacency)

    def __contains__(self, node: RRNode) -> bool:
        return node in self._adjacency

    def neighbors(self, node: RRNode) -> list[RRNode]:
        try:
            return self._adjacency[node]
        except KeyError:
            raise KeyError(f"node {node} is not in the routing-resource graph") from None  # repro-lint: disable=ERR001

    def opin(self, x: int, y: int) -> RRNode:
        return RRNode("OPIN", x, y)

    def ipin(self, x: int, y: int) -> RRNode:
        return RRNode("IPIN", x, y)

    def wire_count(self) -> int:
        return sum(1 for node in self._adjacency if node.is_wire)

    def compiled(self) -> CompiledRRGraph:
        """The integer-indexed view of this graph (built once, cached)."""
        if self._compiled is None:
            self._compiled = CompiledRRGraph.from_geometry(
                self.fabric.width, self.fabric.height, self.channel_width
            )
        return self._compiled
