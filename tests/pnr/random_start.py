"""The random legal placement the annealer started from before it had a
constructive start, kept for the tests that need an unstructured state:
the move-loop oracle, the delta-cost invariants and the check that the
anneal improves on a random placement."""

from __future__ import annotations

import numpy as np

from repro.errors import CapacityError
from repro.mapper.netlist import BlockType, FunctionBlockNetlist
from repro.pnr.fabric import FabricGrid


def initial_positions(
    netlist: FunctionBlockNetlist, fabric: FabricGrid, rng: np.random.Generator
) -> dict[str, tuple[int, int]]:
    """Core blocks on a permutation of the core sites, I/O blocks on a
    permutation of the peripheral I/O sites."""
    core_blocks = [b.name for b in netlist.blocks.values() if b.type != BlockType.IO]
    io_blocks = [b.name for b in netlist.blocks.values() if b.type == BlockType.IO]

    sites = [s.position for s in fabric.sites()]
    if len(core_blocks) > len(sites):
        raise CapacityError(
            f"netlist has {len(core_blocks)} blocks but the fabric "
            f"only has {len(sites)} sites",
            details={"blocks": len(core_blocks), "sites": len(sites)},
        )
    order = rng.permutation(len(sites))
    positions = {name: sites[order[i]] for i, name in enumerate(core_blocks)}

    io_sites = [s.position for s in fabric.io_sites()]
    if len(io_blocks) > len(io_sites):
        raise CapacityError(
            "not enough I/O sites for the netlist's I/O blocks",
            details={"io_blocks": len(io_blocks), "io_sites": len(io_sites)},
        )
    io_order = rng.permutation(len(io_sites))
    positions.update(
        (name, io_sites[io_order[i]]) for i, name in enumerate(io_blocks)
    )
    return positions
