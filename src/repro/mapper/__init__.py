"""The spatial-to-temporal mapper (core-op graph -> function-block netlist)."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".allocation": ("AllocationResult", "GroupAllocation", "allocate", "allocate_for_pe_budget"),
    ".control": ("ControlPlan", "plan_control"),
    ".mapper": ("MappingResult", "SpatialTemporalMapper"),
    ".netlist": ("Block", "BlockType", "FunctionBlockNetlist", "Net", "build_netlist"),
    ".passes": ("MappingPass",),
})

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
