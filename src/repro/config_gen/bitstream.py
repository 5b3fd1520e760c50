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
from dataclasses import dataclass, field, fields

from ..arch.params import FPSAConfig
from ..errors import MappingError, SynthesisError
from ..mapper.control import ControlPlan
from ..mapper.mapper import MappingResult
from ..mapper.netlist import BlockType
from ..pnr.pnr import PnRResult
from ..synthesizer.splitting import TilePlan

__all__ = [
    "CrossbarConfig",
    "RoutingSwitchConfig",
    "ControlConfig",
    "BufferConfig",
    "FPSABitstream",
    "generate_bitstream",
]


@dataclass(frozen=True)
class CrossbarConfig:
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


@dataclass(frozen=True)
class RoutingSwitchConfig:
    """ReRAM switches programmed for one routed net."""

    net: str
    driver: str
    n_sinks: int
    wire_segments: int
    switches_on: int


@dataclass(frozen=True)
class ControlConfig:
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


@dataclass(frozen=True)
class BufferConfig:
    """SMB allocation record."""

    smb: str
    consumer_group: str
    capacity_values: int
    value_bits: int


def _record_dicts(records: list) -> list[dict]:
    """``dataclasses.asdict`` of flat records of one class, without its
    recursive deep copy: the field names are resolved once per list."""
    if not records:
        return []
    names = tuple(f.name for f in fields(records[0]))
    return [{name: getattr(r, name) for name in names} for r in records]


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
            "crossbars": _record_dicts(self.crossbars),
            "routing": _record_dicts(self.routing),
            "control": _record_dicts([self.control])[0] if self.control else None,
            "buffers": _record_dicts(self.buffers),
            "total_configuration_bits": self.total_configuration_bits,
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent)

    @classmethod
    def from_dict(cls, data: dict) -> "FPSABitstream":
        bitstream = cls(
            model=data["model"],
            duplication_degree=data["duplication_degree"],
            crossbars=[CrossbarConfig(**c) for c in data.get("crossbars", [])],
            routing=[RoutingSwitchConfig(**r) for r in data.get("routing", [])],
            control=ControlConfig(**data["control"]) if data.get("control") else None,
            buffers=[BufferConfig(**b) for b in data.get("buffers", [])],
        )
        return bitstream

    @classmethod
    def from_json(cls, text: str) -> "FPSABitstream":
        return cls.from_dict(json.loads(text))


def _crossbar_configs(mapping: MappingResult, config: FPSAConfig) -> list[CrossbarConfig]:
    configs: list[CrossbarConfig] = []
    pe = config.pe
    plans: dict[str, TilePlan] = {}
    for block in mapping.netlist.blocks_of_type(BlockType.PE):
        plan = plans.get(block.group)
        if plan is None:
            group = mapping.coreops.group(block.group)
            plan = plans[block.group] = group.tiling(pe.rows, pe.logical_cols)
        try:
            tile = plan.tile(block.tile)
        except SynthesisError:
            raise MappingError(
                f"PE block {block.name!r} programs tile {block.tile} of group "
                f"{block.group!r}, which has {plan.n_tiles} tiles",
                details={
                    "block": block.name,
                    "group": block.group,
                    "tile": block.tile,
                    "n_tiles": plan.n_tiles,
                },
            ) from None
        configs.append(
            CrossbarConfig(
                pe=block.name,
                group=block.group,
                tile_rows=tile.rows,
                tile_cols=tile.cols,
                cells_per_weight=pe.cells_per_weight,
                cell_bits=pe.cell_bits,
            )
        )
    return configs


def _routing_configs(pnr: PnRResult | None, mapping: MappingResult) -> list[RoutingSwitchConfig]:
    configs: list[RoutingSwitchConfig] = []
    if pnr is not None:
        drivers = {net.name: net.driver for net in mapping.netlist.nets}
        for name, routed in pnr.routing.nets.items():
            segments = routed.wirelength
            # one CB switch per pin plus one SB switch per wire-to-wire hop
            switches = segments + 1 + len(routed.sink_paths)
            configs.append(
                RoutingSwitchConfig(
                    net=name,
                    driver=drivers.get(name, ""),
                    n_sinks=len(routed.sink_paths),
                    wire_segments=segments,
                    switches_on=switches,
                )
            )
        return configs

    # no detailed routing available: estimate from the netlist topology with
    # the analytic mean route length.
    estimated_segments = max(1, int(math.sqrt(len(mapping.netlist.blocks))))
    for net in mapping.netlist.nets:
        configs.append(
            RoutingSwitchConfig(
                net=net.name,
                driver=net.driver,
                n_sinks=len(net.sinks),
                wire_segments=estimated_segments * len(net.sinks),
                switches_on=(estimated_segments + 1) * len(net.sinks) + 1,
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


def _buffer_configs(mapping: MappingResult, config: FPSAConfig) -> list[BufferConfig]:
    value_bits = config.pe.io_bits
    capacity = config.smb.values_capacity(value_bits)
    return [
        BufferConfig(
            smb=block.name,
            consumer_group=block.group,
            capacity_values=capacity,
            value_bits=value_bits,
        )
        for block in mapping.netlist.blocks_of_type(BlockType.SMB)
    ]


def generate_bitstream(
    mapping: MappingResult,
    pnr: PnRResult | None = None,
    config: FPSAConfig | None = None,
) -> FPSABitstream:
    """Assemble the chip configuration for a mapped (and optionally routed) model."""
    config = config if config is not None else FPSAConfig()
    return FPSABitstream(
        model=mapping.model,
        duplication_degree=mapping.duplication_degree,
        crossbars=_crossbar_configs(mapping, config),
        routing=_routing_configs(pnr, mapping),
        control=_control_config(mapping.control),
        buffers=_buffer_configs(mapping, config),
    )
