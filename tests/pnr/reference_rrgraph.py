"""The routing-resource graph built the long way: an adjacency dict over
:class:`RRNode` objects.

This is the reference the compiled graph's arithmetic is checked against —
the neighbour rule (``_Geometry.neighbors_of``), the id decoding
(``_Geometry.node``) and the verifier's coordinate switch predicate.  The
compile flow builds nothing of the kind.
"""

from __future__ import annotations

from repro.errors import InvalidRequestError
from repro.pnr.fabric import FabricGrid
from repro.pnr.rrgraph import PIN_BASE_COST, WIRE_BASE_COST, RRNode


def build_adjacency(fabric: FabricGrid, channel_width: int) -> dict[RRNode, list[RRNode]]:
    """Every node's out-edges; the dict's order is the id order."""
    width, height = fabric.width, fabric.height
    tracks = range(channel_width)

    # wire nodes: H(x, y, t) runs along the channel above row y between
    # columns x and x+1; V(x, y, t) runs along the channel right of
    # column x between rows y and y+1.  Channels exist on all four sides
    # of the core grid (indices -1 .. width/height - 1).
    cells = [(x, y, t) for x in range(-1, width) for y in range(-1, height) for t in tracks]
    adjacency: dict[RRNode, list[RRNode]] = {
        RRNode(kind, *cell): [] for cell in cells for kind in ("H", "V")
    }

    def switch(a: RRNode, b: RRNode) -> None:
        adjacency[a].append(b)
        adjacency[b].append(a)

    # switch boxes (disjoint pattern): at each channel intersection the
    # same-track horizontal and vertical wires interconnect, and wires
    # continue straight into the next segment.
    for x, y, t in cells:
        h, v = RRNode("H", x, y, t), RRNode("V", x, y, t)
        switch(h, v)
        if x + 1 < width:
            switch(h, RRNode("H", x + 1, y, t))
            switch(v, RRNode("V", x + 1, y, t))
        if y + 1 < height:
            switch(h, RRNode("H", x, y + 1, t))
            switch(v, RRNode("V", x, y + 1, t))

    # connection boxes: every block pin, of the core and of the I/O ring
    # around it, reaches all tracks of the channels on its four sides —
    # above, below, right, left, those that exist.
    for x in range(-1, width + 1):
        for y in range(-1, height + 1):
            opin, ipin = RRNode("OPIN", x, y), RRNode("IPIN", x, y)
            adjacency[opin], adjacency[ipin] = [], []
            for t in tracks:
                for wire in (
                    RRNode("H", x, y, t), RRNode("H", x, y - 1, t),
                    RRNode("V", x, y, t), RRNode("V", x - 1, y, t),
                ):
                    if wire in adjacency:
                        adjacency[opin].append(wire)
                        adjacency[wire].append(ipin)
    return adjacency


class ReferenceRRGraph:
    """The dict-built graph, queried by node and by id.

    ``nodes[i]`` is the node of id ``i``, ``neighbor_ids[i]`` its
    out-edges as ids, and ``n_wires`` / ``base_cost`` / ``x`` / ``y`` mirror
    :class:`~repro.pnr.rrgraph.CompiledRRGraph`.
    """

    def __init__(self, fabric: FabricGrid, channel_width: int = 16):
        if channel_width <= 0:
            raise InvalidRequestError("channel_width must be positive")
        self.adjacency = build_adjacency(fabric, channel_width)
        self.nodes = list(self.adjacency)
        ids = {node: i for i, node in enumerate(self.nodes)}
        self.neighbor_ids = [[ids[n] for n in self.adjacency[node]] for node in self.nodes]
        self.n_wires = sum(1 for node in self.nodes if node.is_wire)
        self.base_cost = [
            WIRE_BASE_COST if node.is_wire else PIN_BASE_COST for node in self.nodes
        ]
        self.x = [node.x for node in self.nodes]
        self.y = [node.y for node in self.nodes]

    def __len__(self) -> int:
        return len(self.nodes)

    def __contains__(self, node: RRNode) -> bool:
        return node in self.adjacency

    def neighbors(self, node: RRNode) -> list[RRNode]:
        try:
            return self.adjacency[node]
        except KeyError:
            raise KeyError(f"node {node} is not in the routing-resource graph") from None

    def opin(self, x: int, y: int) -> RRNode:
        return RRNode("OPIN", x, y)

    def ipin(self, x: int, y: int) -> RRNode:
        return RRNode("IPIN", x, y)

    def wire_count(self) -> int:
        return self.n_wires
