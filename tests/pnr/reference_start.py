"""The quadratic start by dense solves: the reference for
``repro.pnr.placement.start_positions``.

The same star-model system over the free nodes (the core blocks, then one
star per net of three or more members), with the I/O blocks as anchors,
is built as a dense matrix net by net and solved exactly by
``np.linalg.solve`` in each pass; each column is legalised on its own.
``start_positions`` solves it by conjugate gradient to a relative
tolerance and legalises all columns in two sorts, so the two agreeing
says the tolerance is tight enough for the rounding the legaliser does.
Imported as ``from reference_start import reference_start`` from
``tests/pnr/``.
"""

from __future__ import annotations

import numpy as np

from repro.mapper.netlist import BlockType, FunctionBlockNetlist
from repro.pnr.fabric import FabricGrid
from repro.pnr.placement import _ANCHOR_WEIGHT, _CENTRE_WEIGHT, _SPREAD_PASSES

__all__ = ["reference_start"]


def reference_start(
    netlist: FunctionBlockNetlist, fabric: FabricGrid
) -> dict[str, tuple[int, int]]:
    core = [b.name for b in netlist.blocks.values() if b.type != BlockType.IO]
    io = [b.name for b in netlist.blocks.values() if b.type == BlockType.IO]
    drivers = {net.driver for net in netlist.nets}
    centre = ((fabric.width - 1) / 2, (fabric.height - 1) / 2)
    anchors = {name: (-1 if name in drivers else fabric.width, centre[1]) for name in io}

    # an edge joins two of: a free node (its index) or an anchor (its name)
    node = {name: i for i, name in enumerate(core)} | {name: name for name in io}
    n, edges = len(core), []
    for net in netlist.nets:
        members = [node[b] for b in dict.fromkeys((net.driver, *net.sinks))]
        if len(members) == 2:
            edges.append((*members, 1.0))
        elif len(members) > 2:
            edges += [(m, n, len(members) / (len(members) - 1)) for m in members]
            n += 1
    laplacian = np.eye(n) * _CENTRE_WEIGHT
    rhs = np.tile(np.array(centre) * _CENTRE_WEIGHT, (n, 1))
    for a, b, weight in edges:
        for here, there in ((a, b), (b, a)):
            if isinstance(here, str):
                continue
            laplacian[here, here] += weight
            if isinstance(there, str):
                rhs[here] += weight * np.array(anchors[there])
            else:
                laplacian[here, there] -= weight

    n_core = len(core)
    legal = np.zeros((n, 2))
    bounds = np.arange(fabric.width + 1) * n_core // fabric.width
    for spread_pass in range(_SPREAD_PASSES + 1):
        pull = np.zeros(n)
        pull[:n_core] = _ANCHOR_WEIGHT * spread_pass
        solved = np.linalg.solve(laplacian + np.diag(pull), rhs + pull[:, None] * legal)
        xs, ys = np.round(solved[:n_core].T, 6)
        order = np.lexsort((np.arange(n_core), ys, xs))
        for column in range(fabric.width):
            members = order[bounds[column]:bounds[column + 1]]
            rows = members[np.lexsort((members, xs[members], ys[members]))]
            legal[rows, 0] = column
            legal[rows, 1] = (2 * np.arange(rows.size) + 1) * fabric.height // (2 * rows.size)

    positions = {name: (int(x), int(y)) for name, (x, y) in zip(core, legal[:n_core])}
    io_sites = [s.position for s in fabric.io_sites()]
    for name in io:
        site = min(io_sites, key=lambda s, a=anchors[name]: FabricGrid.manhattan(s, a))
        io_sites.remove(site)
        positions[name] = site
    return positions
