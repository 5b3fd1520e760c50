"""Performance bounds: the analysis framework of Section 3 / Figure 8c.

Three bounds cap the achievable computational density of a mapped model:

* **peak** — every crossbar cell performs a useful MAC every sampling
  window: the PE's raw computational density.
* **spatial utilization bound** — weight matrices do not fill crossbars
  perfectly (and synthesized pooling/reduction matrices are mostly empty),
  so only a fraction of each activated crossbar performs useful work.
* **temporal utilization bound** — pipeline stages are imbalanced: a PE
  holding rarely-reused weights idles while the bottleneck stage iterates.
  Duplicating the bottleneck groups raises this bound, which is the
  super-linear scalability mechanism of Figure 8.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.params import FPSAConfig, PEParams
from ..mapper.allocation import AllocationResult
from ..synthesizer.coreop import CoreOpGraph

__all__ = ["UtilizationBounds", "spatial_utilization", "compute_bounds"]


@dataclass(frozen=True)
class UtilizationBounds:
    """Computational-density bounds (OPS / mm^2) of one mapped design point."""

    model: str
    duplication_degree: int
    peak_density: float
    spatial_bound: float
    temporal_bound: float

    @property
    def spatial_utilization(self) -> float:
        return self.spatial_bound / self.peak_density if self.peak_density else 0.0

    @property
    def temporal_utilization(self) -> float:
        return self.temporal_bound / self.spatial_bound if self.spatial_bound else 0.0


def spatial_utilization(
    coreops: CoreOpGraph,
    useful_ops_per_sample: float,
    pe: PEParams | None = None,
) -> float:
    """Fraction of the activated crossbar capacity doing useful NN work.

    ``useful_ops_per_sample`` is the original network's operation count
    (Table 3 "# of ops"); the denominator is the crossbar capacity activated
    by all core-op instances of one inference, which the graph's derived
    view (``coreops.derived()``) counts once per graph version.
    """
    pe = pe if pe is not None else PEParams()
    instances = coreops.derived().tiling(pe.rows, pe.logical_cols).instances
    capacity_ops = float(instances * pe.ops_per_vmm)
    if capacity_ops <= 0:
        return 0.0
    return min(1.0, useful_ops_per_sample / capacity_ops)


def compute_bounds(
    coreops: CoreOpGraph,
    allocation: AllocationResult,
    useful_ops_per_sample: float,
    config: FPSAConfig | None = None,
) -> UtilizationBounds:
    """Compute the three density bounds for one mapped design point."""
    config = config if config is not None else FPSAConfig()
    pe = config.pe
    peak = pe.computational_density_ops_per_mm2
    s_util = spatial_utilization(coreops, useful_ops_per_sample, pe)
    t_util = allocation.temporal_utilization()
    return UtilizationBounds(
        model=coreops.name,
        duplication_degree=allocation.duplication_degree,
        peak_density=peak,
        spatial_bound=peak * s_util,
        temporal_bound=peak * s_util * t_util,
    )
