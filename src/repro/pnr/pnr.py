"""The placement & routing driver.

Bundles the fabric construction, the annealing placer, the PathFinder
router and the timing analyzer into one call, mirroring the role mrVPR
plays in the paper's toolchain: it consumes the function-block netlist
emitted by the mapper and reports wirelength, channel occupancy and the
communication critical path that feeds the performance model.

There is one engine: the serial annealer followed by the
window-confined domain router.  It runs on the calling thread and is
deterministic for a fixed seed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

from ..arch.params import FPSAConfig
from ..mapper.netlist import FunctionBlockNetlist
from .fabric import FabricGrid
from .options import PnROptions
from .placement import ParallelAnnealingPlacer, Placement, PlacementStats
from .routing import PathFinderRouter, RoutingResult
from .rrgraph import RoutingResourceGraph
from .timing import TimingReport, analyze_timing

__all__ = ["PnRResult", "PlaceAndRoute"]


@dataclass
class PnRResult:
    """Everything the P&R flow produces for one netlist."""

    model: str
    fabric: FabricGrid
    placement: Placement
    routing: RoutingResult
    timing: TimingReport
    channel_width: int
    #: wall-clock seconds of each P&R stage (place / rrgraph / route /
    #: timing) plus the kernel sub-timers: ``place_start`` is the quadratic
    #: start, ``place_delta`` the annealer's move loop, ``route_expand``
    #: the router's search
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: annealing observability of the placer
    placement_stats: PlacementStats | None = None

    @property
    def total_wirelength(self) -> int:
        return self.routing.total_wirelength

    @property
    def critical_path_ns(self) -> float:
        return self.timing.critical_path_ns

    @property
    def mean_route_segments(self) -> float:
        return self.timing.mean_segments

    def summary(self) -> str:
        return (
            f"P&R of {self.model!r}: {self.fabric.width}x{self.fabric.height} fabric, "
            f"channel width {self.channel_width}, wirelength {self.total_wirelength}, "
            f"critical path {self.critical_path_ns:.3f} ns "
            f"({self.timing.critical_net})"
        )

    def explain(self, max_temperature_rows: int = 12) -> str:
        """Human-readable annealing/search observability.

        The placer section gives the move counts (proposed, evaluated by
        the cost model, accepted) with the unit cost of an evaluated move
        and what it is made of (nets priced, bounding-box axes rescanned),
        and the HPWL of the constructive start against the final; then
        moves proposed/accepted per temperature (head and tail of the
        schedule when it is longer than ``max_temperature_rows``); the
        router section reports negotiation iterations, node expansions,
        rip-up volume and congestion domains.
        """
        lines = ["P&R observability"]
        stats = self.placement_stats
        if stats is not None:
            evaluated = max(stats.moves_evaluated, 1)
            lines.append(
                f"  placer: {stats.rounds} temperature rounds, "
                f"{stats.moves_proposed} proposed / "
                f"{stats.moves_evaluated} evaluated "
                f"({stats.moves_evaluated / max(stats.moves_proposed, 1):.1%}) / "
                f"{stats.moves_accepted} accepted moves, "
                f"{stats.place_delta_seconds / evaluated * 1e6:.2f} us per "
                f"evaluated move ({stats.nets_repriced} nets repriced, "
                f"{stats.box_rescans} box axes rescanned), "
                f"HPWL {stats.start_cost} at the start -> {stats.final_cost} final"
            )
            rows = list(enumerate(stats.temperatures))
            if len(rows) > max_temperature_rows:
                head = max_temperature_rows // 2
                tail = max_temperature_rows - head - 1
                rows = rows[:head] + [None] + rows[-tail:]
            lines.append(f"  {'round':>7} {'temperature':>12} {'proposed':>9} {'accepted':>9}")
            for row in rows:
                if row is None:
                    lines.append("      ...")
                    continue
                index, (temperature, proposed, accepted) = row
                lines.append(
                    f"  {index:>7} {temperature:>12.3f} {proposed:>9} {accepted:>9}"
                )
        routing = self.routing
        lines.append(
            f"  router: {routing.iterations} negotiation iteration(s), "
            f"{routing.nodes_expanded} nodes expanded, "
            f"{routing.rerouted_nets} nets rerouted, "
            f"{routing.domains} congestion domain(s)"
        )
        for stage in ("place", "rrgraph", "route", "timing"):
            if stage in self.stage_seconds:
                lines.append(
                    f"  {stage + ':':<9} {self.stage_seconds[stage] * 1e3:8.1f} ms"
                )
        for sub in ("place_start", "place_delta", "route_expand"):
            if sub in self.stage_seconds:
                lines.append(
                    f"  {sub + ':':<13} {self.stage_seconds[sub] * 1e3:8.1f} ms (kernel)"
                )
        return "\n".join(lines)


class PlaceAndRoute:
    """End-to-end placement & routing for function-block netlists."""

    def __init__(
        self,
        config: FPSAConfig | None = None,
        channel_width: int | None = None,
        max_route_iterations: int = 30,
        seed: int = 0,
        options: PnROptions | None = None,
    ):
        self.config = config if config is not None else FPSAConfig()
        self.channel_width = channel_width
        self.max_route_iterations = max_route_iterations
        self.options = options if options is not None else PnROptions()
        self.placer = ParallelAnnealingPlacer(options=self.options, seed=seed)

    def run(self, netlist: FunctionBlockNetlist) -> PnRResult:
        """Place and route ``netlist``; raises RoutingError when the fabric's
        channel width is insufficient."""
        t0 = time.perf_counter()
        fabric = FabricGrid.for_netlist(netlist)
        placement = self.placer.place(netlist, fabric)
        t1 = time.perf_counter()

        width = self.channel_width or self.config.routing.channel_width
        graph = RoutingResourceGraph(fabric, channel_width=width)
        graph.compiled()  # build the router's integer view inside this stage
        t2 = time.perf_counter()
        router = PathFinderRouter(
            graph,
            max_iterations=self.max_route_iterations,
            options=self.options,
        )
        routing = router.route(netlist, placement)
        t3 = time.perf_counter()
        timing = analyze_timing(routing, self.config.routing)
        t4 = time.perf_counter()

        placement_stats = self.placer.last_stats
        stage_seconds = {
            "place": t1 - t0,
            "rrgraph": t2 - t1,
            "route": t3 - t2,
            "timing": t4 - t3,
            "route_expand": routing.expand_seconds,
            "place_start": placement_stats.start_seconds,
            "place_delta": placement_stats.place_delta_seconds,
        }
        return PnRResult(
            model=netlist.model,
            fabric=fabric,
            placement=placement,
            routing=routing,
            timing=timing,
            channel_width=width,
            stage_seconds=stage_seconds,
            placement_stats=placement_stats,
        )
