"""FP-PRIME: the intermediate design point of Figure 6.

FP-PRIME combines FPSA's reconfigurable routing architecture with PRIME's
processing element: as an :class:`~repro.perf.analytic.Architecture` it is
``pe × comm × fabric`` = PRIME's PE × FPSA's routing × FPSA's fabric.  Its
peak and ideal performance equal PRIME's (same PE), but the dedicated
routed channels remove the shared-bus communication bottleneck, which is
how the paper isolates the contribution of the routing architecture from
the contribution of the simplified PE.

FP-PRIME transmits *spike counts* (n-bit values), not spike trains, because
PRIME's PE interfaces are digital values.
"""

from __future__ import annotations

from ..arch.params import DEFAULT_PRIME_PE, FPSAConfig, PrimePEParams
from ..perf.analytic import Architecture
from ..perf.comm import ReconfigurableRoutingComm

__all__ = ["FPPrimeArchitecture"]


def FPPrimeArchitecture(
    pe: PrimePEParams = DEFAULT_PRIME_PE, config: FPSAConfig | None = None
) -> Architecture:
    """PRIME's PE on FPSA's routing fabric."""
    config = config if config is not None else FPSAConfig()
    return Architecture(
        "FP-PRIME", pe, ReconfigurableRoutingComm(config, spike_train=False), config
    )
