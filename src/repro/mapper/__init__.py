"""The spatial-to-temporal mapper (core-op graph -> function-block netlist)."""

from .allocation import (
    AllocationResult,
    GroupAllocation,
    allocate,
    allocate_for_pe_budget,
)
from .control import ControlPlan, plan_control
from .mapper import MappingResult, SpatialTemporalMapper
from .netlist import Block, BlockType, FunctionBlockNetlist, Net, build_netlist
from .passes import MappingPass

__all__ = [
    "GroupAllocation",
    "AllocationResult",
    "allocate",
    "allocate_for_pe_budget",
    "Block",
    "BlockType",
    "Net",
    "FunctionBlockNetlist",
    "build_netlist",
    "ControlPlan",
    "plan_control",
    "MappingResult",
    "SpatialTemporalMapper",
    "MappingPass",
]
