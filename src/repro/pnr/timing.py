"""Timing analysis of a routed design.

Because every function block registers its outputs (PEs integrate over a
sampling window, SMBs are synchronous memories), every routed connection is
a register-to-register path: the critical path of the chip is simply the
slowest routed connection, which is why the paper can bound the pipeline
cycle by the maximum of the computation and communication latencies.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..arch.params import RoutingParams
from .routing import RoutingResult

__all__ = ["NetTiming", "TimingReport", "analyze_timing"]


@dataclass(frozen=True)
class NetTiming:
    """Delay of the slowest sink of one routed net."""

    net: str
    segments: int
    delay_ns: float


@dataclass(frozen=True)
class TimingReport:
    """Chip-level timing summary."""

    nets: tuple[NetTiming, ...]
    critical_path_ns: float
    critical_net: str
    mean_delay_ns: float
    mean_segments: float


def analyze_timing(
    routing: RoutingResult, params: RoutingParams | None = None
) -> TimingReport:
    """Compute per-net and critical-path delays of a routed design."""
    params = params if params is not None else RoutingParams()
    timings: list[NetTiming] = []
    for name, net in routing.nets.items():
        worst_segments = 0
        for sink in net.sink_paths:
            worst_segments = max(worst_segments, net.sink_delay_segments(sink))
        delay = params.hop_delay_ns(worst_segments) if worst_segments else params.switch_delay_ns
        timings.append(NetTiming(net=name, segments=worst_segments, delay_ns=delay))

    if not timings:
        return TimingReport(
            nets=(), critical_path_ns=0.0, critical_net="", mean_delay_ns=0.0, mean_segments=0.0
        )
    critical = max(timings, key=lambda t: t.delay_ns)
    return TimingReport(
        nets=tuple(timings),
        critical_path_ns=critical.delay_ns,
        critical_net=critical.net,
        mean_delay_ns=sum(t.delay_ns for t in timings) / len(timings),
        mean_segments=sum(t.segments for t in timings) / len(timings),
    )
