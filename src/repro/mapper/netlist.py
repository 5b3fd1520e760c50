"""The function-block netlist: the mapper's output, the placer's input.

A netlist instantiates the three kinds of function blocks (PEs, SMBs, CLBs)
and connects them with nets.  It is produced at *group granularity*: each
allocated PE (one crossbar tile of one duplicate of one weight group)
becomes a block, SMBs are instantiated for the buffered group-to-group
connections, and CLBs are instantiated for the control plan.  The placement
& routing tool (:mod:`repro.pnr`) then maps the blocks to physical sites
and routes the nets through the reconfigurable wiring fabric.
"""

from __future__ import annotations

import math
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import islice
from operator import attrgetter
from typing import NamedTuple

from ..arch.params import FPSAConfig, ceil_div
from ..errors import MappingError
from ..synthesizer.coreop import CoreOpGraph
from .allocation import AllocationResult

__all__ = [
    "BlockType",
    "Block",
    "Net",
    "FunctionBlockNetlist",
    "smbs_per_edge",
    "build_datapath",
    "attach_control",
    "build_netlist",
]


class BlockType:
    """Function-block type tags."""

    PE = "PE"
    SMB = "SMB"
    CLB = "CLB"
    IO = "IO"

    ALL = (PE, SMB, CLB, IO)


class _BlockFields(NamedTuple):
    name: str
    type: str
    group: str = ""
    tile: int = 0
    duplicate: int = 0


class Block(_BlockFields):
    """One instantiated function block: an immutable tuple record whose
    ``repr`` is the fingerprinted form."""

    __slots__ = ()

    def __new__(
        cls, name: str, type: str, group: str = "", tile: int = 0, duplicate: int = 0
    ) -> "Block":
        if type not in BlockType.ALL:
            raise MappingError(f"unknown block type {type!r}")
        return tuple.__new__(cls, (name, type, group, tile, duplicate))


class _NetFields(NamedTuple):
    name: str
    driver: str
    sinks: tuple[str, ...]
    bits: int = 1


class Net(_NetFields):
    """One routed connection from a driver block to one or more sink blocks
    (an immutable tuple record, like :class:`Block`)."""

    __slots__ = ()

    def __new__(cls, name: str, driver: str, sinks: tuple[str, ...], bits: int = 1) -> "Net":
        if not sinks:
            raise MappingError(f"net {name!r} has no sinks")
        if bits <= 0:
            raise MappingError(f"net {name!r} must carry at least one bit")
        return tuple.__new__(cls, (name, driver, sinks, bits))


@dataclass
class FunctionBlockNetlist:
    """Blocks + nets, with convenience counters."""

    model: str
    blocks: dict[str, Block] = field(default_factory=dict)
    nets: list[Net] = field(default_factory=list)
    #: bumped by every structural mutation; memoized fingerprints
    #: (:func:`repro.core.cache.netlist_fingerprint`) key on it so a
    #: mutated netlist can never serve a stale digest.  Mutate only
    #: through :meth:`add_block`/:meth:`add_net` (or, in this module's
    #: builders, one batch of records at a time).
    mutation_count: int = field(default=0, repr=False, compare=False)

    def add_block(self, block: Block) -> Block:
        if block.name in self.blocks:
            raise MappingError(f"duplicate block name {block.name!r}")
        self.blocks[block.name] = block
        self.mutation_count += 1
        return block

    def add_net(self, net: Net) -> Net:
        unknown = [b for b in (net.driver, *net.sinks) if b not in self.blocks]
        if unknown:
            raise MappingError(f"net {net.name!r} references unknown blocks {unknown}")
        self.nets.append(net)
        self.mutation_count += 1
        return net

    def count(self, block_type: str) -> int:
        return sum(1 for b in self.blocks.values() if b.type == block_type)

    @property
    def n_pe(self) -> int:
        return self.count(BlockType.PE)

    @property
    def n_smb(self) -> int:
        return self.count(BlockType.SMB)

    @property
    def n_clb(self) -> int:
        return self.count(BlockType.CLB)

    def block_counts(self) -> dict[str, int]:
        """``n_pe`` / ``n_smb`` / ``n_clb`` from one pass over the blocks,
        keyed the way the summaries and the area and energy models name
        them.  A compiled mapping answers the same question without a
        netlist (:meth:`repro.mapper.mapper.MappingResult.block_counts`)."""
        counts = Counter(map(attrgetter("type"), self.blocks.values()))
        return {
            "n_pe": counts[BlockType.PE],
            "n_smb": counts[BlockType.SMB],
            "n_clb": counts[BlockType.CLB],
        }

    def blocks_of_type(self, block_type: str) -> list[Block]:
        return [b for b in self.blocks.values() if b.type == block_type]

    def chip_area_mm2(self, config: FPSAConfig | None = None) -> float:
        """Total chip area of this netlist including routing overhead."""
        config = config if config is not None else FPSAConfig()
        return config.chip_area_mm2(**self.block_counts())

    def summary(self) -> str:
        counts = self.block_counts()
        return (
            f"netlist {self.model!r}: {counts['n_pe']} PEs, {counts['n_smb']} SMBs, "
            f"{counts['n_clb']} CLBs, {len(self.nets)} nets"
        )


def smbs_per_edge(
    coreops: CoreOpGraph, allocation: AllocationResult, config: FPSAConfig
) -> list[int]:
    """SMBs each of ``coreops.edges()`` needs in one replica, in edge order;
    0 means the edge streams.

    A group-to-group connection is buffered when its consumer iterates over
    its reuse positions (time-division multiplexing always needs the
    intermediate data buffered) or runs at another pace than its producer;
    producer and consumer iterating in lock step stream, as do the graph's
    boundary edges.  The one statement of the rule: the builder
    instantiates these SMBs and every block count sums them.
    """
    capacity = config.smb.values_capacity(config.pe.io_bits)
    counts = []
    for edge in coreops.edges():
        n_smbs = 0
        if edge.src in coreops and edge.dst in coreops:
            consumer = allocation.allocation(edge.dst).iterations
            if consumer > 1 or consumer != allocation.allocation(edge.src).iterations:
                n_smbs = ceil_div(max(1, edge.values_per_instance), capacity)
        counts.append(n_smbs)
    return counts


#: builds a record without running its constructor; the builders below
#: make the constructor's checks once per batch instead
_new = tuple.__new__


def _add_blocks(
    netlist: FunctionBlockNetlist, block_type: str, batch: dict[str, Block]
) -> tuple[str, ...]:
    """Add one batch of ``block_type`` blocks, whose names differ by index,
    and return their names: the checks of :class:`Block` and
    :meth:`FunctionBlockNetlist.add_block`, once for the batch."""
    if block_type not in BlockType.ALL:
        raise MappingError(f"unknown block type {block_type!r}")
    blocks = netlist.blocks
    size = len(blocks)
    blocks.update(batch)
    if len(blocks) != size + len(batch):
        # a taken name keeps its place; only the new names are appended
        added = set(islice(blocks, size, None))
        name = next(name for name in batch if name not in added)
        raise MappingError(f"duplicate block name {name!r}")
    netlist.mutation_count += len(batch)
    return tuple(batch)


def _add_nets(
    netlist: FunctionBlockNetlist, drivers: Sequence[str], sinks: tuple[str, ...]
) -> None:
    """One net per driver, numbered on from the netlist's last, all on the
    one ``sinks`` tuple; both ends are blocks of this build."""
    nets = netlist.nets
    if drivers and not sinks:
        raise MappingError(f"net 'net{len(nets)}' has no sinks")
    nets += [
        _new(Net, (f"net{i}", driver, sinks, 1)) for i, driver in enumerate(drivers, len(nets))
    ]
    netlist.mutation_count += len(drivers)


def build_datapath(
    coreops: CoreOpGraph,
    allocation: AllocationResult,
    config: FPSAConfig | None = None,
) -> FunctionBlockNetlist:
    """Build the IO, PE and SMB blocks of an allocated core-op graph and the
    data nets between them; :func:`attach_control` completes the netlist.

    Buffered connections (:func:`smbs_per_edge`) go through their SMBs;
    streaming ones carry nets straight between the PEs.  Blocks are added
    one group and nets one edge at a time.
    """
    config = config if config is not None else FPSAConfig()
    for group in coreops.groups():
        if group.name not in allocation.allocations:
            message = f"the allocation of {coreops.name!r} has no PEs for group {group.name!r}"
            raise MappingError(message, details={"group": group.name})
    netlist = FunctionBlockNetlist(model=coreops.name)
    io_in = _add_blocks(netlist, BlockType.IO, {"__input__": Block("__input__", BlockType.IO)})
    io_out = _add_blocks(netlist, BlockType.IO, {"__output__": Block("__output__", BlockType.IO)})
    edges = list(zip(coreops.edges(), smbs_per_edge(coreops, allocation, config)))
    pe, smb = BlockType.PE, BlockType.SMB
    smb_index = 0

    for replica in range(allocation.replication):
        prefix = f"rep{replica}::" if allocation.replication > 1 else ""

        # PE blocks of this replica; the one names tuple of a group is
        # every net's view of that group
        pe_names: dict[str, tuple[str, ...]] = {}
        for group, alloc in allocation.allocations.items():
            base = f"{prefix}{group}::pe"
            batch = {
                (name := f"{base}{tile}.{dup}"): _new(Block, (name, pe, group, tile, dup))
                for tile in range(alloc.tiles)
                for dup in range(alloc.duplication)
            }
            pe_names[group] = _add_blocks(netlist, pe, batch)

        # SMB blocks for buffered connections + nets
        for edge, n_smbs in edges:
            drivers = pe_names[edge.src] if edge.src in coreops else io_in
            sinks = pe_names[edge.dst] if edge.dst in coreops else io_out
            if n_smbs:
                batch = {
                    (name := f"smb{index}"): _new(Block, (name, smb, edge.dst, 0, 0))
                    for index in range(smb_index, smb_index + n_smbs)
                }
                smbs = _add_blocks(netlist, smb, batch)
                smb_index += n_smbs
                _add_nets(netlist, drivers, smbs)
                _add_nets(netlist, smbs, sinks)
            else:
                _add_nets(netlist, drivers, sinks)

    return netlist


def attach_control(
    netlist: FunctionBlockNetlist,
    config: FPSAConfig | None = None,
    clb_blocks: int | None = None,
) -> FunctionBlockNetlist:
    """Append the CLB blocks and their control nets to a datapath netlist.

    Parameters
    ----------
    clb_blocks:
        Number of CLBs to instantiate.  When omitted, the default
        provisioning of ``config.clbs_per_pe`` is used (the control planner
        in :mod:`repro.mapper.control` computes the exact requirement).
    """
    config = config if config is not None else FPSAConfig()
    pes = tuple([block.name for block in netlist.blocks_of_type(BlockType.PE)])
    if clb_blocks is None:
        clb_blocks = max(1, math.ceil(len(pes) * config.clbs_per_pe))
    clb = BlockType.CLB
    batch = {(name := f"clb{i}"): _new(Block, (name, clb, "", 0, 0)) for i in range(clb_blocks)}
    # each CLB drives the control pins of a share of the PEs (the first
    # ``len(pes)`` have one); net names continue the data nets' numbering
    drivers = _add_blocks(netlist, clb, batch)[: len(pes)]
    start = len(netlist.nets)
    netlist.nets += [
        _new(Net, (f"net{start + i}", driver, pes[i::clb_blocks], 1))
        for i, driver in enumerate(drivers)
    ]
    netlist.mutation_count += len(drivers)
    return netlist


def build_netlist(
    coreops: CoreOpGraph,
    allocation: AllocationResult,
    config: FPSAConfig | None = None,
    clb_blocks: int | None = None,
) -> FunctionBlockNetlist:
    """Build the complete function-block netlist for an allocated core-op
    graph: :func:`build_datapath` followed by :func:`attach_control`."""
    return attach_control(build_datapath(coreops, allocation, config), config, clb_blocks)
