"""Performance models: bounds and the analytic pipelined model."""

from .analytic import (
    Architecture,
    AreaSweepPoint,
    BlockCounts,
    FPSAArchitecture,
    estimate_block_counts,
    evaluate_design_point,
    pipeline_depth,
    sweep_area,
    traffic_values_per_sample,
)
from .bounds import UtilizationBounds, compute_bounds, spatial_utilization
from .comm import (
    CommContext,
    ReconfigurableRoutingComm,
    SharedBusComm,
    mean_route_segments,
)
from .metrics import LatencyBreakdown, PerformanceReport, geometric_mean
from .passes import BoundsPass, PerfPass

__all__ = [
    "PerformanceReport",
    "LatencyBreakdown",
    "geometric_mean",
    "CommContext",
    "SharedBusComm",
    "ReconfigurableRoutingComm",
    "mean_route_segments",
    "UtilizationBounds",
    "compute_bounds",
    "spatial_utilization",
    "Architecture",
    "FPSAArchitecture",
    "BlockCounts",
    "estimate_block_counts",
    "traffic_values_per_sample",
    "pipeline_depth",
    "evaluate_design_point",
    "sweep_area",
    "AreaSweepPoint",
    "PerfPass",
    "BoundsPass",
]
