"""Chip-level energy and area aggregation.

The paper's evaluation focuses on performance and computational density,
but the function-block parameters of Table 1 include per-activation energy;
this module aggregates them into per-inference and per-second figures so
examples and ablations can report energy alongside performance.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidRequestError
from .params import FPSAConfig

__all__ = ["BlockMix", "EnergyReport", "estimate_energy"]


@dataclass(frozen=True)
class BlockMix:
    """A chip composition: how many of each function block are instantiated,
    and how many activations of each occur per inference."""

    n_pe: int
    n_smb: int
    n_clb: int
    pe_vmm_per_inference: float
    smb_accesses_per_inference: float
    clb_cycles_per_inference: float
    routed_bits_per_inference: float
    #: segments a routed bit crosses (:func:`repro.perf.comm.mean_route_segments`)
    mean_route_segments: float

    def __post_init__(self) -> None:
        if min(self.n_pe, self.n_smb, self.n_clb) < 0:
            raise InvalidRequestError("block counts must be non-negative")


@dataclass(frozen=True)
class EnergyReport:
    """Energy breakdown of one inference."""

    pe_pj: float
    smb_pj: float
    clb_pj: float
    routing_pj: float

    @property
    def total_pj(self) -> float:
        return self.pe_pj + self.smb_pj + self.clb_pj + self.routing_pj

    @property
    def total_uj(self) -> float:
        return self.total_pj / 1e6

    def breakdown(self) -> dict[str, float]:
        """Fractions of total energy per component."""
        total = self.total_pj
        if total <= 0:
            return {"pe": 0.0, "smb": 0.0, "clb": 0.0, "routing": 0.0}
        return {
            "pe": self.pe_pj / total,
            "smb": self.smb_pj / total,
            "clb": self.clb_pj / total,
            "routing": self.routing_pj / total,
        }


def estimate_energy(mix: BlockMix, config: FPSAConfig | None = None) -> EnergyReport:
    """Estimate the per-inference energy of a chip composition."""
    config = config if config is not None else FPSAConfig()
    pe_pj = mix.pe_vmm_per_inference * config.pe.energy_per_vmm_pj
    smb_pj = mix.smb_accesses_per_inference * config.smb.block.energy_pj
    clb_pj = mix.clb_cycles_per_inference * config.clb.block.energy_pj
    routing_pj = (
        mix.routed_bits_per_inference
        * mix.mean_route_segments
        * config.routing.energy_per_bit_segment_pj
    )
    return EnergyReport(pe_pj=pe_pj, smb_pj=smb_pj, clb_pj=clb_pj, routing_pj=routing_pj)
