"""FPSA chip-configuration (bitstream) generation.

The last box of the paper's Figure 5 flow is the *FPSA configuration*: the
set of programmable state that deploys one model onto the chip —

* the conductance targets of every PE's ReRAM crossbar (the weights, in the
  add representation with positive/negative column pairs),
* the ReRAM switch states of the connection boxes and switch boxes along
  every routed net,
* the CLB contents (sampling-window and iteration counters) and
* the SMB allocation map (which buffer holds which intermediate tensor).

This module assembles that configuration from the mapper and P&R outputs.
Weight values are optional: the performance flow is shape-only, so when no
weight tensors are supplied the crossbar entries record the tile geometry
with zeroed conductance targets (a "floorplan-only" bitstream), which is
still enough to count configuration bits and to program a chip emulator.
"""

from __future__ import annotations

import json
import math
from collections.abc import Mapping
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, NamedTuple

from ..arch.params import FPSAConfig
from ..errors import InvalidRequestError, MappingError
from ..mapper.allocation import GroupAllocation
from ..mapper.control import ControlPlan
from ..mapper.mapper import MappingResult
from ..mapper.netlist import BlockType, datapath_batches
from ..synthesizer.splitting import TilePlan

if TYPE_CHECKING:  # pragma: no cover - typing only: P&R loads numpy
    from ..pnr.pnr import PnRResult

__all__ = [
    "CrossbarConfig",
    "RoutingSwitchConfig",
    "ControlConfig",
    "BufferConfig",
    "FPSABitstream",
    "generate_bitstream",
]


class CrossbarConfig(NamedTuple):
    """Programming record of one PE's crossbar."""

    pe: str
    group: str
    tile_rows: int
    tile_cols: int
    cells_per_weight: int
    cell_bits: int

    @property
    def programmed_cells(self) -> int:
        """Physical cells programmed for this tile (pos + neg columns)."""
        return self.tile_rows * self.tile_cols * self.cells_per_weight * 2

    @property
    def configuration_bits(self) -> int:
        return self.programmed_cells * self.cell_bits


class RoutingSwitchConfig(NamedTuple):
    """ReRAM switches programmed for one routed net."""

    net: str
    driver: str
    n_sinks: int
    wire_segments: int
    switches_on: int


class ControlConfig(NamedTuple):
    """CLB configuration summary."""

    clbs: int
    luts: int
    window_counters: int
    iteration_counters: int
    buffer_counters: int

    @property
    def configuration_bits(self) -> int:
        # one 6-input LUT holds 64 configuration bits
        return self.luts * 64


class BufferConfig(NamedTuple):
    """SMB allocation record."""

    smb: str
    consumer_group: str
    capacity_values: int
    value_bits: int


@dataclass
class FPSABitstream:
    """The complete deployable configuration of one model."""

    model: str
    duplication_degree: int
    crossbars: list[CrossbarConfig] = field(default_factory=list)
    routing: list[RoutingSwitchConfig] = field(default_factory=list)
    control: ControlConfig | None = None
    buffers: list[BufferConfig] = field(default_factory=list)

    @property
    def weight_configuration_bits(self) -> int:
        return sum(c.configuration_bits for c in self.crossbars)

    @property
    def routing_configuration_switches(self) -> int:
        return sum(r.switches_on for r in self.routing)

    @property
    def control_configuration_bits(self) -> int:
        return self.control.configuration_bits if self.control else 0

    @property
    def total_configuration_bits(self) -> int:
        # each routing switch is one ReRAM cell = 1 configuration bit
        return (
            self.weight_configuration_bits
            + self.routing_configuration_switches
            + self.control_configuration_bits
        )

    def summary(self) -> str:
        return (
            f"bitstream for {self.model!r}: {len(self.crossbars)} crossbars "
            f"({self.weight_configuration_bits:,} weight bits), "
            f"{len(self.routing)} routed nets "
            f"({self.routing_configuration_switches:,} switch cells), "
            f"{len(self.buffers)} buffers, "
            f"{self.control_configuration_bits:,} control bits"
        )

    def to_dict(self) -> dict:
        """A JSON-serialisable representation of the configuration."""
        return {
            "model": self.model,
            "duplication_degree": self.duplication_degree,
            "crossbars": [c._asdict() for c in self.crossbars],
            "routing": [r._asdict() for r in self.routing],
            "control": self.control._asdict() if self.control else None,
            "buffers": [b._asdict() for b in self.buffers],
            "total_configuration_bits": self.total_configuration_bits,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FPSABitstream":
        """Rebuild a configuration from :meth:`to_dict`'s form.  The input
        comes from outside the program: a missing key, or a missing or
        unknown record field, raises :class:`InvalidRequestError` naming
        the record kind, its index and the field."""
        for key in ("model", "duplication_degree"):
            if key not in data:
                raise InvalidRequestError(
                    f"bitstream: missing key {key!r}", details={"field": key}
                )
        control = data.get("control")
        return cls(
            model=data["model"],
            duplication_degree=data["duplication_degree"],
            crossbars=_records(CrossbarConfig, "crossbars", data),
            routing=_records(RoutingSwitchConfig, "routing", data),
            control=_record(ControlConfig, "control", None, control) if control else None,
            buffers=_records(BufferConfig, "buffers", data),
        )

    @classmethod
    def from_json(cls, text: str) -> "FPSABitstream":
        return cls.from_dict(json.loads(text))


def _record(record: type, kind: str, index: int | None, entry: Any) -> Any:
    """``record(**entry)``, or the :class:`InvalidRequestError` naming the
    first unknown or missing field of ``kind[index]``."""
    where = kind if index is None else f"{kind}[{index}]"
    details = {"record": kind, "index": index}
    if not isinstance(entry, Mapping):
        raise InvalidRequestError(f"bitstream {where}: not an object", details=details)
    try:
        return record(**entry)
    except TypeError:
        pass
    unknown = [name for name in entry if name not in record._fields]
    missing = [name for name in record._fields if name not in entry]
    problem, name = ("unknown", unknown[0]) if unknown else ("missing", missing[0])
    raise InvalidRequestError(
        f"bitstream {where}: {problem} field {name!r}", details={**details, "field": name}
    )


def _records(record: type, kind: str, data: Mapping[str, Any]) -> list:
    return [_record(record, kind, i, entry) for i, entry in enumerate(data.get(kind) or ())]


#: builds a record without running its constructor (a ``NamedTuple``'s
#: ``__new__`` is a Python function call per record)
_new = tuple.__new__


def _pe_shapes(plan: TilePlan, alloc: GroupAllocation) -> list[tuple[int, int]]:
    """Tile rows and cols of each PE of one replica of ``alloc``'s group, in
    :func:`datapath_batches` order: :meth:`TilePlan.tile`'s arithmetic,
    done once per row and column of its tiles; no ``Tile`` is built.  An
    allocation whose tiles are not the group's tiling is refused."""
    group, tiles = alloc.group, alloc.tiles
    if tiles != plan.n_tiles:
        message = f"the allocation gives group {group!r} {tiles} tiles, but its tiling has"
        details = {"group": group, "tiles": tiles, "n_tiles": plan.n_tiles}
        raise MappingError(f"{message} {plan.n_tiles}", details=details)
    row_sizes = [
        min(plan.max_rows, plan.matrix_rows - r * plan.max_rows) for r in range(plan.n_row_tiles)
    ]
    col_sizes = [
        min(plan.max_cols, plan.matrix_cols - c * plan.max_cols) for c in range(plan.n_col_tiles)
    ]
    duplicates = range(alloc.duplication)
    return [(rows, cols) for rows in row_sizes for cols in col_sizes for _ in duplicates]


def _census(
    mapping: MappingResult, config: FPSAConfig, routed: bool
) -> tuple[list[CrossbarConfig], list[RoutingSwitchConfig], list[BufferConfig]]:
    """The crossbar and buffer records and, unless ``routed``, the routing
    records, one batch per batch of :func:`datapath_batches`.  Unrouted, a
    net's wire segments are estimated per sink as the square root of the
    netlist's block count: the mapping's PEs, SMBs and CLBs, and two IO."""
    pe = config.pe
    cells_per_weight, cell_bits = pe.cells_per_weight, pe.cell_bits
    value_bits = pe.io_bits
    capacity = config.smb.values_capacity(value_bits)
    estimated = max(1, int(math.sqrt(sum(mapping.block_counts().values()) + 2)))
    plans = mapping.coreops.derived().tiling(pe.rows, pe.logical_cols).plans
    allocations = mapping.allocation.allocations
    shapes: dict[str, list[tuple[int, int]]] = {}
    crossbars: list[CrossbarConfig] = []
    routing: list[RoutingSwitchConfig] = []
    buffers: list[BufferConfig] = []
    batches = datapath_batches(
        mapping.coreops,
        mapping.allocation,
        config,
        0 if routed else mapping.control.clbs_needed,
        smbs=mapping.smbs_per_edge,
    )
    for kind, group, names, nets in batches:
        if kind == BlockType.PE:
            if group not in shapes:
                shapes[group] = _pe_shapes(plans[group], allocations[group])
            crossbars += [
                _new(CrossbarConfig, (name, group, rows, cols, cells_per_weight, cell_bits))
                for name, (rows, cols) in zip(names, shapes[group])
            ]
        elif kind == BlockType.SMB:
            buffers += [_new(BufferConfig, (name, group, capacity, value_bits)) for name in names]
        if routed:
            continue
        for net_names, drivers, sinks in nets:
            n_sinks = len(sinks)
            segments, switches = estimated * n_sinks, (estimated + 1) * n_sinks + 1
            routing += [
                _new(RoutingSwitchConfig, (name, driver, n_sinks, segments, switches))
                for name, driver in zip(net_names, drivers)
            ]
    return crossbars, routing, buffers


def _routing_configs(pnr: PnRResult, mapping: MappingResult) -> list[RoutingSwitchConfig]:
    """One record per routed net."""
    drivers = {net.name: net.driver for net in mapping.netlist.nets}
    configs: list[RoutingSwitchConfig] = []
    for name, routed in pnr.routing.nets.items():
        segments = routed.wirelength
        n_sinks = len(routed.sink_paths)
        # one CB switch per pin plus one SB switch per wire-to-wire hop
        configs.append(
            RoutingSwitchConfig(
                name, drivers.get(name, ""), n_sinks, segments, segments + 1 + n_sinks
            )
        )
    return configs


def _control_config(control: ControlPlan) -> ControlConfig:
    return ControlConfig(
        clbs=control.clbs_needed,
        luts=control.luts_total,
        window_counters=control.window_counters,
        iteration_counters=control.iteration_counters,
        buffer_counters=control.buffer_counters,
    )


def generate_bitstream(
    mapping: MappingResult,
    pnr: PnRResult | None = None,
    config: FPSAConfig | None = None,
) -> FPSABitstream:
    """Assemble the chip configuration for a mapped (and optionally routed) model."""
    config = config if config is not None else FPSAConfig()
    crossbars, routing, buffers = _census(mapping, config, routed=pnr is not None)
    return FPSABitstream(
        model=mapping.model,
        duplication_degree=mapping.duplication_degree,
        crossbars=crossbars,
        routing=_routing_configs(pnr, mapping) if pnr is not None else routing,
        control=_control_config(mapping.control),
        buffers=buffers,
    )
