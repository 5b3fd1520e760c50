"""Baseline accelerator models: PRIME, FP-PRIME, ISAAC, PipeLayer.

PRIME and FP-PRIME are :class:`~repro.perf.analytic.Architecture` records
(``pe × comm × fabric``) built by :func:`PrimeArchitecture` and
:func:`FPPrimeArchitecture`; ISAAC, PipeLayer and Eyeriss are published
reference numbers only.
"""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".fp_prime": ("FPPrimeArchitecture",),
    ".prime": ("PRIME_PUBLISHED", "PrimeArchitecture"),
    ".reference": (
        "EYERISS_REFERENCE",
        "ISAAC_REFERENCE",
        "PIPELAYER_REFERENCE",
        "AcceleratorReference",
    ),
})

__all__ = [
    "PrimeArchitecture",
    "PRIME_PUBLISHED",
    "FPPrimeArchitecture",
    "AcceleratorReference",
    "ISAAC_REFERENCE",
    "PIPELAYER_REFERENCE",
    "EYERISS_REFERENCE",
]
