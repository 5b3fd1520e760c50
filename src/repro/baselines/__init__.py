"""Baseline accelerator models: PRIME, FP-PRIME, ISAAC, PipeLayer.

PRIME and FP-PRIME are :class:`~repro.perf.analytic.Architecture` records
(``pe × comm × fabric``) built by :func:`PrimeArchitecture` and
:func:`FPPrimeArchitecture`; ISAAC, PipeLayer and Eyeriss are published
reference numbers only.
"""

from .fp_prime import FPPrimeArchitecture
from .prime import PRIME_PUBLISHED, PrimeArchitecture
from .reference import (
    EYERISS_REFERENCE,
    ISAAC_REFERENCE,
    PIPELAYER_REFERENCE,
    AcceleratorReference,
)

__all__ = [
    "PrimeArchitecture",
    "PRIME_PUBLISHED",
    "FPPrimeArchitecture",
    "AcceleratorReference",
    "ISAAC_REFERENCE",
    "PIPELAYER_REFERENCE",
    "EYERISS_REFERENCE",
]
