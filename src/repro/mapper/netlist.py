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
from dataclasses import dataclass, field
from operator import attrgetter

from ..arch.params import FPSAConfig
from ..errors import MappingError
from ..synthesizer.coreop import CoreOpGraph
from .allocation import AllocationResult

__all__ = [
    "BlockType",
    "Block",
    "Net",
    "FunctionBlockNetlist",
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


@dataclass(frozen=True)
class Block:
    """One instantiated function block."""

    name: str
    type: str
    group: str = ""
    tile: int = 0
    duplicate: int = 0

    def __post_init__(self) -> None:
        if self.type not in BlockType.ALL:
            raise MappingError(f"unknown block type {self.type!r}")


@dataclass(frozen=True)
class Net:
    """One routed connection from a driver block to one or more sink blocks."""

    name: str
    driver: str
    sinks: tuple[str, ...]
    bits: int = 1

    def __post_init__(self) -> None:
        if not self.sinks:
            raise MappingError(f"net {self.name!r} has no sinks")
        if self.bits <= 0:
            raise MappingError(f"net {self.name!r} must carry at least one bit")


@dataclass
class FunctionBlockNetlist:
    """Blocks + nets, with convenience counters."""

    model: str
    blocks: dict[str, Block] = field(default_factory=dict)
    nets: list[Net] = field(default_factory=list)
    #: bumped by every structural mutation; memoized fingerprints
    #: (:func:`repro.core.cache.netlist_fingerprint`) key on it so a
    #: mutated netlist can never serve a stale digest.  Mutate only
    #: through :meth:`add_block`/:meth:`add_net`.
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
        them.  Computed per call: the netlist is pickled into the stage
        stores, so it carries no derived field."""
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


def _pe_block_name(group: str, tile: int, duplicate: int) -> str:
    return f"{group}::pe{tile}.{duplicate}"


def build_datapath(
    coreops: CoreOpGraph,
    allocation: AllocationResult,
    config: FPSAConfig | None = None,
) -> FunctionBlockNetlist:
    """Build the IO, PE and SMB blocks of an allocated core-op graph and the
    data nets between them; :func:`attach_control` completes the netlist.

    Buffers (SMBs) are instantiated on every group-to-group connection whose
    consumer iterates over its reuse positions (time-division multiplexing
    always needs the intermediate data buffered); direct streaming
    connections (producer and consumer iterate in lock step) carry nets
    straight between the PEs.
    """
    config = config if config is not None else FPSAConfig()
    netlist = FunctionBlockNetlist(model=coreops.name)

    io_in = netlist.add_block(Block(name="__input__", type=BlockType.IO))
    io_out = netlist.add_block(Block(name="__output__", type=BlockType.IO))

    value_bits = config.pe.io_bits
    smb_capacity = config.smb.values_capacity(value_bits)
    net_index = 0
    smb_index = 0

    for replica in range(allocation.replication):
        prefix = f"rep{replica}::" if allocation.replication > 1 else ""

        # PE blocks of this replica
        for group_name, alloc in allocation.allocations.items():
            for tile in range(alloc.tiles):
                for dup in range(alloc.duplication):
                    netlist.add_block(
                        Block(
                            name=prefix + _pe_block_name(group_name, tile, dup),
                            type=BlockType.PE,
                            group=group_name,
                            tile=tile,
                            duplicate=dup,
                        )
                    )

        # SMB blocks for buffered connections + nets
        for edge in coreops.edges():
            src_is_group = edge.src in coreops
            dst_is_group = edge.dst in coreops

            if src_is_group:
                src_alloc = allocation.allocation(edge.src)
                drivers = [
                    prefix + _pe_block_name(edge.src, t, d)
                    for t in range(src_alloc.tiles)
                    for d in range(src_alloc.duplication)
                ]
            else:
                drivers = [io_in.name]

            if dst_is_group:
                dst_alloc = allocation.allocation(edge.dst)
                sinks = [
                    prefix + _pe_block_name(edge.dst, t, d)
                    for t in range(dst_alloc.tiles)
                    for d in range(dst_alloc.duplication)
                ]
            else:
                sinks = [io_out.name]

            needs_buffer = (
                src_is_group
                and dst_is_group
                and (
                    allocation.allocation(edge.src).iterations
                    != allocation.allocation(edge.dst).iterations
                    or allocation.allocation(edge.dst).iterations > 1
                )
            )

            if needs_buffer:
                values = max(1, edge.values_per_instance)
                n_smbs = max(1, math.ceil(values / smb_capacity))
                smb_names = []
                for _ in range(n_smbs):
                    smb = netlist.add_block(
                        Block(name=f"smb{smb_index}", type=BlockType.SMB, group=edge.dst)
                    )
                    smb_names.append(smb.name)
                    smb_index += 1
                for driver in drivers:
                    netlist.add_net(
                        Net(
                            name=f"net{net_index}",
                            driver=driver,
                            sinks=tuple(smb_names),
                            bits=1,
                        )
                    )
                    net_index += 1
                for smb_name in smb_names:
                    netlist.add_net(
                        Net(name=f"net{net_index}", driver=smb_name, sinks=tuple(sinks), bits=1)
                    )
                    net_index += 1
            else:
                for driver in drivers:
                    netlist.add_net(
                        Net(name=f"net{net_index}", driver=driver, sinks=tuple(sinks), bits=1)
                    )
                    net_index += 1

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
    pe_blocks = netlist.blocks_of_type(BlockType.PE)
    if clb_blocks is None:
        clb_blocks = max(1, math.ceil(len(pe_blocks) * config.clbs_per_pe))
    # net names continue the data nets' numbering
    net_index = len(netlist.nets)
    for i in range(clb_blocks):
        clb = netlist.add_block(Block(name=f"clb{i}", type=BlockType.CLB))
        # each CLB drives the control pins of a share of the PEs
        share = pe_blocks[i::clb_blocks]
        if share:
            netlist.add_net(
                Net(
                    name=f"net{net_index}",
                    driver=clb.name,
                    sinks=tuple(b.name for b in share),
                    bits=1,
                )
            )
            net_index += 1
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
