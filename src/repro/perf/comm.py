"""Communication-subsystem models.

The paper's central observation (Section 3) is that the communication
subsystem, not the ReRAM computation, bounds the performance of existing
accelerators.  Three communication models are compared:

* :class:`SharedBusComm` — PRIME/PipeLayer style: all PEs share a memory
  bus of fixed bandwidth; per-transfer latency grows with the number of
  concurrently communicating PEs and the total per-sample traffic bounds
  the achievable throughput.
* :class:`ReconfigurableRoutingComm` (spike-count mode) — FP-PRIME: the
  FPSA island-style routing fabric carrying conventional n-bit values.
* :class:`ReconfigurableRoutingComm` (spike-train mode) — FPSA: the same
  fabric carrying 2**n-cycle spike trains (more traffic per value, but no
  encoder/decoder and 1-cycle streaming hand-off between PEs).

Each answers two questions about a :class:`CommContext`:
``per_vmm_latency_ns`` (the communication latency added to one PE's VMM)
and ``sample_rate_limit`` (the samples/second ceiling of the subsystem
alone, ``inf`` when it imposes none).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from ..arch.params import FPSAConfig, InterChipParams
from ..errors import InvalidRequestError

__all__ = [
    "CommContext",
    "SharedBusComm",
    "ReconfigurableRoutingComm",
    "InterChipLinkModel",
    "mean_route_segments",
]


def mean_route_segments(n_blocks: int, locality: float = 0.9) -> int:
    """Average routed path length (in routing segments) on an island-style
    fabric of ``n_blocks`` function blocks.

    The fabric is roughly a sqrt(N) x sqrt(N) grid; the average
    source-to-sink Manhattan distance of a placed netlist scales with the
    grid side, damped by the placer's locality (``locality`` < 1).  The
    detailed P&R flow (:mod:`repro.pnr`) measures the real value for small
    designs; this closed form is used by the analytic model for
    ImageNet-scale netlists.
    """
    if n_blocks <= 1:
        return 1
    return max(1, int(round(locality * math.sqrt(n_blocks))))


@dataclass(frozen=True)
class CommContext:
    """Everything a communication model needs about one mapped design point."""

    n_blocks: int
    active_pes: float
    values_per_vmm: int
    value_bits: int
    traffic_values_per_sample: float

    @property
    def bits_per_vmm(self) -> float:
        return self.values_per_vmm * self.value_bits

    @property
    def traffic_bits_per_sample(self) -> float:
        return self.traffic_values_per_sample * self.value_bits


@dataclass(frozen=True)
class SharedBusComm:
    """A shared hierarchical memory bus (PRIME / PipeLayer).

    ``bandwidth_bits_per_ns`` defaults to 128 bits/ns (16 GB/s), a DDR-class
    internal bus; the value is a calibration constant recorded in
    EXPERIMENTS.md.
    """

    bandwidth_bits_per_ns: float = 128.0
    name: str = "shared-bus"

    def per_vmm_latency_ns(self, ctx: CommContext) -> float:
        if self.bandwidth_bits_per_ns <= 0:
            raise InvalidRequestError("bus bandwidth must be positive")
        concurrent = max(1.0, ctx.active_pes)
        return ctx.bits_per_vmm * concurrent / self.bandwidth_bits_per_ns

    def sample_rate_limit(self, ctx: CommContext) -> float:
        traffic = ctx.traffic_bits_per_sample
        if traffic <= 0:
            return float("inf")
        return self.bandwidth_bits_per_ns * 1e9 / traffic


@dataclass(frozen=True)
class ReconfigurableRoutingComm:
    """The FPSA island-style reconfigurable routing fabric.

    Every group-to-group connection owns a dedicated routed channel
    configured at deployment time, so there is no contention: the latency is
    the serialisation time of the transferred value over the routed path,
    and the fabric imposes no chip-level throughput ceiling.

    ``spike_train=True`` models FPSA itself (2**n cycles per value, paced by
    the slower of the hop delay and the PE spike cycle);
    ``spike_train=False`` models FP-PRIME (n bits per value).
    """

    config: FPSAConfig
    spike_train: bool = True
    locality: float = 0.9

    @property
    def name(self) -> str:
        return "routing-spike-train" if self.spike_train else "routing-spike-count"

    def per_vmm_latency_ns(self, ctx: CommContext) -> float:
        segments = mean_route_segments(ctx.n_blocks, self.locality)
        if self.spike_train:
            return self.config.spike_train_comm_ns(segments)
        return self.config.spike_count_comm_ns(segments)

    def sample_rate_limit(self, ctx: CommContext) -> float:
        # dedicated channels: no shared-medium ceiling.
        return float("inf")


@dataclass(frozen=True)
class InterChipLinkModel:
    """Serial chip-to-chip links of a partitioned multi-chip deployment.

    Unlike the on-chip routing fabric, chip boundaries are crossed over a
    small number of shared serial links per chip, so cut-edge spike traffic
    *does* impose a throughput ceiling: the busiest directed chip pair must
    move its per-sample cut bits through one link.  The latency model
    charges one link crossing (framing latency + serialisation of the
    transferred values) per inter-chip hop of the pipeline.

    ``value_bits`` is the width of one transferred activation; spike trains
    are converted to counts at the chip boundary (an SMB already performs
    exactly this conversion on buffered edges), so a value costs ``io_bits``
    bits on the link rather than a full ``2**io_bits``-cycle train.
    """

    params: InterChipParams
    value_bits: int = 6
    name: str = "inter-chip-link"

    def hop_latency_ns(self, values: float) -> float:
        """Latency of one chip-boundary crossing moving ``values`` values."""
        if values <= 0:
            return 0.0
        return self.params.transfer_ns(values * self.value_bits)

    def sample_rate_limit(self, pair_traffic_values_per_sample: Mapping[tuple[int, int], float]) -> float:
        """Samples/second ceiling imposed by the chip-to-chip links.

        ``pair_traffic_values_per_sample`` maps a directed ``(src_chip,
        dst_chip)`` pair to the values it moves per sample.  Two constraints
        bound the steady-state rate: the busiest pair saturates one link,
        and each chip's *aggregate* traffic (in either direction, summed
        over all its partners) shares the chip's ``links_per_chip`` links —
        a chip fanning out to many others cannot exceed its pin budget.
        """
        pairs = pair_traffic_values_per_sample
        worst = max(pairs.values(), default=0.0)
        # full-duplex links: outgoing and incoming aggregates each share the
        # chip's link budget independently
        outgoing: dict[int, float] = {}
        incoming: dict[int, float] = {}
        for (src, dst), values in pairs.items():
            outgoing[src] = outgoing.get(src, 0.0) + values
            incoming[dst] = incoming.get(dst, 0.0) + values
        for aggregate in (outgoing, incoming):
            if aggregate:
                worst = max(
                    worst, max(aggregate.values()) / self.params.links_per_chip
                )
        if worst <= 0:
            return float("inf")
        bits = worst * self.value_bits
        return self.params.link_bandwidth_bits_per_ns * 1e9 / bits
