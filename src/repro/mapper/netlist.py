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
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from itertools import islice, product, repeat
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
    "datapath_batches",
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


def _names(prefix: str, start: int, count: int) -> tuple[str, ...]:
    return tuple([f"{prefix}{i}" for i in range(start, start + count)])


def _control_batch(pes: tuple[str, ...], clb_blocks: int, first_net: int) -> tuple:
    """``clb_blocks`` CLBs and their control nets, numbered on from
    ``first_net``: each CLB drives the control pins of a share of the PEs
    (the first ``len(pes)`` have one)."""
    clbs = _names("clb", 0, clb_blocks)
    drivers = clbs[: len(pes)]
    nets = [
        ((net,), (driver,), pes[i::clb_blocks])
        for i, (net, driver) in enumerate(zip(_names("net", first_net, len(drivers)), drivers))
    ]
    return BlockType.CLB, "", clbs, nets


def datapath_batches(
    coreops: CoreOpGraph,
    allocation: AllocationResult,
    config: FPSAConfig,
    clb_blocks: int = 0,
    smbs: Sequence[int] | None = None,
) -> Iterator[tuple]:
    """The netlist of an allocated core-op graph as batches of names, in
    build order: the one statement of how its blocks and nets are named.

    A batch is ``(block type, group, block names, nets)``, ``nets`` a
    sequence of ``(net names, drivers, sinks)``: one net per driver, all on
    the one ``sinks`` tuple.  First the two IO blocks; then, per replica,
    each allocated group's PEs (tile-major, duplicate-minor) and, per edge
    of :func:`smbs_per_edge`, its SMBs (for the consumer group, none if it
    streams) with its nets; last, ``clb_blocks`` CLBs with their control
    nets.  A group's one PE names tuple is every net's view of that group.
    ``smbs`` are a mapping's per-edge counts (``MappingResult.smbs_per_edge``);
    without them the rule counts them again.
    """
    for group in coreops.groups():
        if group.name not in allocation.allocations:
            message = f"the allocation of {coreops.name!r} has no PEs for group {group.name!r}"
            raise MappingError(message, details={"group": group.name})
    io_in, io_out = ("__input__",), ("__output__",)
    yield BlockType.IO, "", io_in, ()
    yield BlockType.IO, "", io_out, ()
    if smbs is None:
        smbs = smbs_per_edge(coreops, allocation, config)
    edges = list(zip(coreops.edges(), smbs, strict=True))
    pes: list[str] = []
    n_smbs = n_nets = 0

    for replica in range(allocation.replication):
        prefix = f"rep{replica}::" if allocation.replication > 1 else ""
        pe_names: dict[str, tuple[str, ...]] = {}
        for group, alloc in allocation.allocations.items():
            base = f"{prefix}{group}::pe"
            names = tuple([
                f"{base}{tile}.{dup}"
                for tile in range(alloc.tiles)
                for dup in range(alloc.duplication)
            ])
            pe_names[group] = names
            pes += names
            yield BlockType.PE, group, names, ()

        for edge, count in edges:
            drivers = pe_names[edge.src] if edge.src in coreops else io_in
            sinks = pe_names[edge.dst] if edge.dst in coreops else io_out
            smbs = _names("smb", n_smbs, count)
            n_smbs += count
            hops = ((drivers, smbs), (smbs, sinks)) if count else ((drivers, sinks),)
            nets = []
            for hop_drivers, hop_sinks in hops:
                nets.append((_names("net", n_nets, len(hop_drivers)), hop_drivers, hop_sinks))
                n_nets += len(hop_drivers)
            yield BlockType.SMB, edge.dst, smbs, nets

    if clb_blocks:
        yield _control_batch(tuple(pes), clb_blocks, n_nets)


def _add_blocks(netlist: FunctionBlockNetlist, block_type: str, batch: dict[str, Block]) -> None:
    """Add one batch of ``block_type`` blocks, whose names differ by index:
    the checks of :class:`Block` and :meth:`FunctionBlockNetlist.add_block`,
    once for the batch."""
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


def _add_nets(
    netlist: FunctionBlockNetlist,
    names: Sequence[str],
    drivers: Sequence[str],
    sinks: tuple[str, ...],
) -> None:
    """One net per driver, named by ``names``, all on the one ``sinks``
    tuple; both ends are blocks of this build."""
    if drivers and not sinks:
        raise MappingError(f"net {names[0]!r} has no sinks")
    netlist.nets += [_new(Net, (name, driver, sinks, 1)) for name, driver in zip(names, drivers)]
    netlist.mutation_count += len(drivers)


def _build(
    netlist: FunctionBlockNetlist, batches: Iterable[tuple], allocation: AllocationResult | None
) -> FunctionBlockNetlist:
    """Add the blocks and nets of :func:`datapath_batches`' ``batches``."""
    for kind, group, names, nets in batches:
        if kind == BlockType.PE:
            alloc = allocation.allocations[group]
            places = product(range(alloc.tiles), range(alloc.duplication))
        else:
            places = repeat((0, 0))
        _add_blocks(
            netlist,
            kind,
            {
                name: _new(Block, (name, kind, group, tile, dup))
                for name, (tile, dup) in zip(names, places)
            },
        )
        for net_names, drivers, sinks in nets:
            _add_nets(netlist, net_names, drivers, sinks)
    return netlist


def build_datapath(
    coreops: CoreOpGraph,
    allocation: AllocationResult,
    config: FPSAConfig | None = None,
    smbs: Sequence[int] | None = None,
) -> FunctionBlockNetlist:
    """Build the IO, PE and SMB blocks of an allocated core-op graph and the
    data nets between them, one batch of :func:`datapath_batches` at a
    time; :func:`attach_control` completes the netlist."""
    config = config if config is not None else FPSAConfig()
    netlist = FunctionBlockNetlist(model=coreops.name)
    batches = datapath_batches(coreops, allocation, config, smbs=smbs)
    return _build(netlist, batches, allocation)


def attach_control(
    netlist: FunctionBlockNetlist,
    config: FPSAConfig | None = None,
    clb_blocks: int | None = None,
) -> FunctionBlockNetlist:
    """Append the CLB blocks and their control nets to a datapath netlist;
    net names continue the data nets' numbering.

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
    return _build(netlist, [_control_batch(pes, clb_blocks, len(netlist.nets))], None)


def build_netlist(
    coreops: CoreOpGraph,
    allocation: AllocationResult,
    config: FPSAConfig | None = None,
    clb_blocks: int | None = None,
    smbs: Sequence[int] | None = None,
) -> FunctionBlockNetlist:
    """Build the complete function-block netlist for an allocated core-op
    graph: :func:`build_datapath` followed by :func:`attach_control`."""
    datapath = build_datapath(coreops, allocation, config, smbs=smbs)
    return attach_control(datapath, config, clb_blocks)
