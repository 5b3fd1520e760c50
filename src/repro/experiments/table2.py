"""Table 2: per-PE comparison of PRIME and FPSA.

For a 256x256, 8-bit-weight, 6-bit-I/O vector-matrix multiplication the
paper reports PRIME's and FPSA's PE area, latency and computational
density, with FPSA improving the density by ~31x.  ISAAC's and PipeLayer's
published densities are included as reference points (Section 6.2).
"""

from __future__ import annotations

from ..arch.params import FPSAConfig
from ..baselines.prime import PrimeArchitecture
from ..baselines.reference import ISAAC_REFERENCE, PIPELAYER_REFERENCE
from .common import ExperimentResult

__all__ = ["run", "PAPER_TABLE2"]

#: published Table 2 values: (area um^2, latency ns, density OPS/mm^2).
PAPER_TABLE2 = {
    "PRIME": (34802.204, 3064.7, 1.229e12),
    "FPSA": (22051.414, 156.4, 38.004e12),
    "area_improvement": -0.3663,
    "latency_improvement": -0.9490,
    "density_improvement": 30.92,
}


def run(config: FPSAConfig | None = None) -> ExperimentResult:
    """Regenerate Table 2."""
    config = config if config is not None else FPSAConfig()
    fpsa_pe = config.pe
    prime = PrimeArchitecture()

    result = ExperimentResult(
        name="Table 2",
        description="PE comparison for a 256x256, 8-bit weight, 6-bit I/O "
        "vector-matrix multiplication.",
        columns=[
            "architecture", "area_um2", "latency_ns",
            "density_TOPS_per_mm2", "paper_density_TOPS_per_mm2",
        ],
    )
    result.add_row(
        architecture="PRIME",
        area_um2=prime.pe.area_um2,
        latency_ns=prime.pe.vmm_latency_ns,
        density_TOPS_per_mm2=prime.pe.computational_density_ops_per_mm2 / 1e12,
        paper_density_TOPS_per_mm2=PAPER_TABLE2["PRIME"][2] / 1e12,
    )
    result.add_row(
        architecture="FPSA",
        area_um2=fpsa_pe.block.area_um2,
        latency_ns=fpsa_pe.vmm_latency_ns,
        density_TOPS_per_mm2=fpsa_pe.computational_density_ops_per_mm2 / 1e12,
        paper_density_TOPS_per_mm2=PAPER_TABLE2["FPSA"][2] / 1e12,
    )
    result.add_row(
        architecture="ISAAC (published)",
        area_um2=float("nan"),
        latency_ns=float("nan"),
        density_TOPS_per_mm2=ISAAC_REFERENCE.tops_per_mm2,
        paper_density_TOPS_per_mm2=ISAAC_REFERENCE.tops_per_mm2,
    )
    result.add_row(
        architecture="PipeLayer (published)",
        area_um2=float("nan"),
        latency_ns=float("nan"),
        density_TOPS_per_mm2=PIPELAYER_REFERENCE.tops_per_mm2,
        paper_density_TOPS_per_mm2=PIPELAYER_REFERENCE.tops_per_mm2,
    )

    area_change = fpsa_pe.block.area_um2 / prime.pe.area_um2 - 1.0
    latency_change = fpsa_pe.vmm_latency_ns / prime.pe.vmm_latency_ns - 1.0
    density_ratio = (
        fpsa_pe.computational_density_ops_per_mm2 / prime.pe.computational_density_ops_per_mm2
    )
    result.add_note(
        f"area change {area_change * 100:.2f}% (paper {PAPER_TABLE2['area_improvement'] * 100:.2f}%)"
    )
    result.add_note(
        f"latency change {latency_change * 100:.2f}% "
        f"(paper {PAPER_TABLE2['latency_improvement'] * 100:.2f}%)"
    )
    result.add_note(
        f"computational density improvement {density_ratio:.2f}x "
        f"(paper {PAPER_TABLE2['density_improvement']:.2f}x)"
    )
    return result
