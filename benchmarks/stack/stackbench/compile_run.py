"""Runner of the three compile workloads.

Untraced passes time ``FPSACompiler.compile`` per point and give every
end-to-end number.  The traced pass drives the same pipeline through the
layers' public functions, one span per pass and per P&R sub-stage, and
must reproduce the untraced summary bit for bit.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import os
import statistics
import time
import traceback
from dataclasses import dataclass, field
from typing import Any

from . import stats
from .calibrate import SpeedClock
from .spans import SpanRecorder, dump_spans
from .workloads import Point, compile_points, enough

#: span name -> the layer metric its seconds add up into.
SPAN_METRIC = {
    "synthesis": "synthesizer.run_s",
    "partition": "partition.run_s",
    "mapping": "mapper.run_s",
    "perf": "perf.evaluate_s",
    "bounds": "perf.bounds_s",
    "bitstream": "config_gen.run_s",
    "pnr.place": "pnr.place_s",
    "pnr.rrgraph": "pnr.rrgraph_s",
    "pnr.route": "pnr.route_s",
    "pnr.timing": "pnr.timing_s",
    "config_gen.to_json": "config_gen.to_json_s",
}
PNR_STAGES = ("place", "rrgraph", "route", "timing")


def _canonical(value: Any) -> Any:
    """Floats to 9 significant digits, so a digest survives a last-bit
    difference between two builds of the same arithmetic."""
    if isinstance(value, float):
        return float(f"{value:.9g}")
    if isinstance(value, dict):
        return {k: _canonical(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_canonical(v) for v in value]
    return value


def digest(data: Any) -> str:
    payload = json.dumps(_canonical(data), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


def summary_digests(summary: dict[str, Any]) -> tuple[str, str]:
    """(full, stable) digests of a ``ResultSummary`` dict.  Both drop the
    wall-clock fields; ``stable`` also drops what P&R decides (the ``pnr``
    section and the routed-net counts of the bitstream line), so it can be
    pinned in ``expected_seed0.json`` without freezing the annealer."""
    from repro.fuzz.oracle import strip_seconds

    stripped = strip_seconds(summary)
    stable = dict(stripped)
    if stable.pop("pnr", None) is not None:
        stable.pop("bitstream", None)
    return digest(stripped), digest(stable)


@dataclass
class Observation:
    """What the benchmark keeps of one compile's result."""

    full_digest: str
    stable_digest: str
    legal: bool
    throughput: float
    density: float
    wirelength: int
    critical_path_ns: float
    config_bits: int
    counts: dict[str, float] = field(default_factory=dict)


def _pnr_results(result) -> list:
    if result.pnr is not None:
        return [result.pnr]
    return [s.pnr for s in result.shard_results or () if s.pnr is not None]


def _bitstreams(result) -> list:
    if result.bitstream is not None:
        return [result.bitstream]
    return [s.bitstream for s in result.shard_results or () if s.bitstream is not None]


def _netlists(result) -> list:
    if result.mapping is not None:
        return [result.mapping.netlist]
    return [s.mapping.netlist for s in result.shard_results or () if s.mapping]


def observe(result, config) -> Observation:
    from repro.service.schemas import ResultSummary

    full, stable = summary_digests(ResultSummary.from_result(result, config).to_dict())
    pnrs = _pnr_results(result)
    bitstreams = _bitstreams(result)
    netlists = _netlists(result)
    placements = [p.placement_stats for p in pnrs if p.placement_stats is not None]
    plan = result.partition
    counts = {
        "graph.nodes": len(result.graph.nodes()),
        "synthesizer.groups": len(result.coreops),
        "synthesizer.min_pes": result.coreops.min_pes(
            config.pe.rows, config.pe.logical_cols
        ),
        "partition.shards": plan.num_chips if plan is not None else 0,
        "partition.cut_values": plan.cut_values_per_sample if plan is not None else 0,
        "mapper.blocks": sum(len(n.blocks) for n in netlists),
        "mapper.nets": sum(len(n.nets) for n in netlists),
        "pnr.rounds": sum(s.rounds for s in placements),
        "pnr.moves_proposed": sum(s.moves_proposed for s in placements),
        "pnr.moves_accepted": sum(s.moves_accepted for s in placements),
        "pnr.route_iterations": sum(p.routing.iterations for p in pnrs),
        "pnr.nodes_expanded": sum(p.routing.nodes_expanded for p in pnrs),
        "pnr.rerouted_nets": sum(p.routing.rerouted_nets for p in pnrs),
        "pnr.domains": sum(p.routing.domains for p in pnrs),
        "config_gen.crossbars": sum(len(b.crossbars) for b in bitstreams),
        "config_gen.routed_nets": sum(len(b.routing) for b in bitstreams),
    }
    return Observation(
        full_digest=full,
        stable_digest=stable,
        legal=all(p.routing.legal for p in pnrs),
        throughput=result.performance.throughput_samples_per_s,
        density=result.performance.computational_density_ops_per_mm2,
        wirelength=sum(p.total_wirelength for p in pnrs),
        critical_path_ns=max((p.critical_path_ns for p in pnrs), default=0.0),
        config_bits=sum(b.total_configuration_bits for b in bitstreams),
        counts=counts,
    )


def verify_result(result) -> None:
    """Run the IR verifiers over every artifact of one compile; raises
    ``VerificationError`` on the first violated invariant."""
    from repro.analysis.verify import verify_artifacts

    verify_artifacts(
        {
            "graph": result.graph,
            "coreops": result.coreops,
            "partition": result.partition,
            "mapping": result.mapping,
            "pnr": result.pnr,
        },
        result,
    )
    for shard in result.shard_results or ():
        verify_artifacts(
            {"coreops": shard.shard.coreops, "mapping": shard.mapping, "pnr": shard.pnr},
            shard,
        )


def place_and_route(rec: SpanRecorder, netlist, config, seed: int, jobs, channel_width=None):
    """``PlaceAndRoute.run`` unrolled into its four public sub-stage calls,
    one span each."""
    from repro.pnr.fabric import FabricGrid
    from repro.pnr.options import PnROptions
    from repro.pnr.placement import ParallelAnnealingPlacer
    from repro.pnr.pnr import PnRResult
    from repro.pnr.routing import PathFinderRouter
    from repro.pnr.rrgraph import RoutingResourceGraph
    from repro.pnr.timing import analyze_timing

    options = PnROptions(jobs=jobs)
    with rec.span("pnr.place"):
        fabric = FabricGrid.for_netlist(netlist)
        placer = ParallelAnnealingPlacer(options=options, seed=seed)
        placement = placer.place(netlist, fabric)
    width = channel_width or config.routing.channel_width
    with rec.span("pnr.rrgraph"):
        graph = RoutingResourceGraph(fabric, channel_width=width)
        graph.compiled()
    with rec.span("pnr.route"):
        router = PathFinderRouter(graph, options=options)
        routing = router.route(netlist, placement)
    with rec.span("pnr.timing"):
        timing = analyze_timing(routing, config.routing)
    return PnRResult(
        model=netlist.model,
        fabric=fabric,
        placement=placement,
        routing=routing,
        timing=timing,
        channel_width=width,
        placement_stats=placer.last_stats,
    )


@dataclass
class PassResult:
    """One pass over the points: reference seconds (see
    :mod:`.calibrate`), raw seconds and observation per point that did not
    fail, plus the spans when the pass was traced."""

    seconds: dict[str, float] = field(default_factory=dict)
    raw_seconds: dict[str, float] = field(default_factory=dict)
    observations: dict[str, Observation] = field(default_factory=dict)
    rec: SpanRecorder | None = None
    json_bytes: int = 0


class CompileBench:
    """One compile workload, set up and ready to run passes.

    Constructing it is the workload's set-up: it imports :mod:`repro` and
    builds every graph.
    """

    def __init__(self, workload: str, seed: int, points: list[Point] | None = None):
        from repro.core.compiler import FPSACompiler

        self.workload = workload
        self.seed = seed
        self.points = points if points is not None else compile_points(workload, seed)
        #: the points the timing metrics are taken over: a generated graph's
        #: size is a property of the seed, so it is compiled and checked in
        #: every pass but kept out of figures compared across seeds.
        self.timed_keys = [p.key for p in self.points if not p.seeded]
        self.compiler = FPSACompiler(cache=False)
        self.config = self.compiler.config
        #: set by the caller once set-up is over: the clock is the
        #: benchmark's own and no part of the stack's set-up time.
        self.clock: SpeedClock | None = None
        start = time.perf_counter()
        built: dict[str, Any] = {}
        self.graphs = {}
        for point in self.points:
            source = point.model or point.key
            if source not in built:
                built[source] = self.build_graph(point)
            self.graphs[point.key] = built[source]
        self.build_seconds = time.perf_counter() - start
        self.failures: list[str] = []
        self.failed_ops: set[tuple[int, str]] = set()
        self.attempted = 0
        self.violations = 0
        self.verify_seconds = 0.0

    def build_graph(self, point: Point):
        from repro.fuzz import build_graph, generate_spec
        from repro.models.zoo import build_model

        if point.model is not None:
            return build_model(point.model)
        return build_graph(generate_spec(self.seed, point.fuzz_index, "small"))

    # ------------------------------------------------------------------ ops

    def timed_wall(self, seconds: dict[str, float]) -> float:
        """One pass's seconds (reference or raw) summed over the timed points."""
        return sum(seconds.get(key, 0.0) for key in self.timed_keys)

    def fail(self, pass_index: int, key: str, reason: str) -> None:
        self.failed_ops.add((pass_index, key))
        self.failures.append(f"pass {pass_index} {key}: {reason}")

    def run_pass(self, pass_index: int, rec: SpanRecorder | None = None) -> PassResult:
        """Compile every point once, through ``compile()`` or, with a
        recorder, through the traced drive."""
        done = PassResult(rec=rec)
        timed: dict[str, tuple[float, float]] = {}
        for point in self.points:
            self.attempted += 1
            start = time.perf_counter()
            try:
                if rec is None:
                    result = self.compiler.compile(
                        self.graphs[point.key], use_cache=False, **point.options
                    )
                else:
                    result = self.drive_traced(rec, point)
            except Exception:  # noqa: BLE001 - an op that raises is a failed op
                self.fail(pass_index, point.key, traceback.format_exc(limit=3))
                continue
            timed[point.key] = (start, time.perf_counter())
            observation = observe(result, self.config)
            done.observations[point.key] = observation
            if not observation.legal:
                self.fail(pass_index, point.key, "illegal routing")
            if pass_index == 0:
                self.verify(pass_index, point, result)
            if rec is not None and not point.seeded:
                # serialising the chip configuration is what a deploy hands
                # to the programmer; timed outside the compile span
                for bitstream in _bitstreams(result):
                    with rec.span("config_gen.to_json", op=point.key):
                        done.json_bytes += len(bitstream.to_json())
        # after the pass, so that each op has its samples on both sides
        for key, (start, end) in timed.items():
            done.raw_seconds[key] = end - start
            done.seconds[key] = self.clock.reference_seconds(start, end)
        return done

    def verify(self, pass_index: int, point: Point, result) -> None:
        from repro.errors import VerificationError

        start = time.perf_counter()
        try:
            verify_result(result)
        except VerificationError as exc:
            self.violations += 1
            self.fail(pass_index, point.key, f"IR verifier: {exc}")
        self.verify_seconds += time.perf_counter() - start

    # ------------------------------------------------------- traced driving

    def _run_passes(self, rec: SpanRecorder, ctx, names: list[str]) -> None:
        from repro.core.pipeline import resolve_passes

        for compile_pass in resolve_passes(names):
            with rec.span(compile_pass.name):
                if compile_pass.name != "pnr":
                    compile_pass.run(ctx)
                    continue
                ctx.pnr = place_and_route(
                    rec,
                    ctx.mapping.netlist,
                    ctx.config,
                    seed=ctx.options.effective_pnr_seed(),
                    jobs=ctx.options.pnr_jobs,
                    channel_width=ctx.options.pnr_channel_width,
                )

    def drive_traced(self, rec: SpanRecorder, point: Point):
        """``FPSACompiler.compile(use_cache=False)`` unrolled: the same
        passes in the same order, each under a span."""
        from repro.core.pipeline import CompileContext, CompileOptions, default_pass_names
        from repro.core.result import DeploymentResult
        from repro.partition.backend import (
            backend_pass_names,
            combine_bounds,
            combine_performance,
            compile_shards,
        )

        graph = self.graphs[point.key]
        options = CompileOptions(**point.options)
        ctx = CompileContext(
            graph=graph,
            config=self.config,
            options=options,
            synthesis_options=self.compiler.synthesis_options,
        )
        names = default_pass_names(options)

        def single_chip_result(partition=None):
            return DeploymentResult(
                graph=graph,
                coreops=ctx.coreops,
                mapping=ctx.mapping,
                performance=ctx.performance,
                bounds=ctx.bounds,
                pnr=ctx.pnr,
                bitstream=ctx.bitstream,
                partition=partition,
            )

        with rec.span("compile", op=point.key):
            if not options.partitioned:
                self._run_passes(rec, ctx, names)
                return single_chip_result()
            self._run_passes(rec, ctx, ["synthesis", "partition"])
            plan = ctx.partition
            backend = backend_pass_names(names)
            if plan.num_chips == 1:
                ctx.options = dataclasses.replace(options, num_chips=None)
                self._run_passes(rec, ctx, backend)
                return single_chip_result(plan)
            useful_ops = graph.total_ops()
            with rec.span("partition.shards"):
                shards = compile_shards(
                    plan,
                    config=self.config,
                    options=options,
                    pass_names=backend,
                    useful_ops_per_sample=useful_ops,
                    jobs=1,
                )
                for shard in shards:
                    for timing in shard.timings:
                        row = rec.reported(timing.name, timing.seconds, chip=shard.index)
                        if timing.name == "pnr":
                            for stage in PNR_STAGES:
                                rec.reported(
                                    f"pnr.{stage}",
                                    shard.pnr.stage_seconds[stage],
                                    parent=row.id,
                                    chip=shard.index,
                                )
            return DeploymentResult(
                graph=graph,
                coreops=ctx.coreops,
                performance=combine_performance(plan, shards, self.config, useful_ops),
                bounds=combine_bounds(plan, shards),
                partition=plan,
                shard_results=shards,
            )

    # ------------------------------------------------------- layer probes

    def graph_layer_metrics(self) -> dict[str, float]:
        """``graph_fingerprint`` memoizes on the graph, so each distinct
        graph is rebuilt (untimed) and fingerprinted once, cold."""
        from repro.core.cache import graph_fingerprint

        seconds = 0.0
        seen = set()
        for point in self.points:
            source = point.model or point.key
            if source in seen:
                continue
            seen.add(source)
            fresh = self.build_graph(point)
            start = time.perf_counter()
            graph_fingerprint(fresh)
            seconds += time.perf_counter() - start
        return {
            "models.build_s": self.build_seconds,
            "graph.fingerprint_ms": seconds * 1e3,
        }

    def pnr_jobs_scaling(self, repeats: int = 2) -> float:
        """(place + route at ``jobs=1``) / (at ``jobs=nproc``) on
        CIFAR-VGG17 d4, medians of alternating repeats."""
        from repro.models.zoo import build_model
        from repro.seeding import derive_seed

        nproc = os.cpu_count() or 1
        netlist = self.compiler.compile(
            build_model("CIFAR-VGG17"), duplication_degree=4, use_cache=False
        ).mapping.netlist
        seconds: dict[int, list[float]] = {1: [], nproc: []}
        for _ in range(repeats):
            for jobs in seconds:
                rec = SpanRecorder()
                place_and_route(
                    rec, netlist, self.config, derive_seed(self.seed, "pnr"), jobs
                )
                by_name = rec.seconds_by_name()
                seconds[jobs].append(by_name["pnr.place"] + by_name["pnr.route"])
        return statistics.median(seconds[1]) / statistics.median(seconds[nproc])


def layer_seconds(done: PassResult, keys: list[str]) -> dict[str, float]:
    """Fold the spans one traced pass recorded for the points ``keys`` into
    the per-layer second metrics, in reference seconds at the pass's own
    speed factor."""
    scale = sum(done.seconds.values()) / sum(done.raw_seconds.values())
    totals = done.rec.seconds_by_name(ops=keys)
    own = done.rec.seconds_by_name(self_time=True, ops=keys)
    metrics = {metric: totals.get(span, 0.0) for span, metric in SPAN_METRIC.items()}
    metrics["partition.shards_s"] = own.get("partition.shards", 0.0)
    metrics["core.compile_self_s"] = own.get("compile", 0.0)
    metrics = {name: seconds * scale for name, seconds in metrics.items()}
    # what the pass spans under a compile span miss of it; a ratio of raw
    # seconds of one pass, so machine speed cancels
    metrics["core.unattributed_share"] = own.get("compile", 0.0) / totals["compile"]
    return metrics


def _measure(bench: CompileBench, seconds: float, trace: bool, min_passes: int):
    """The passes of one run, in order.  Untraced: repeat until ``seconds``
    have gone by (at least ``min_passes``).  Traced: untraced and traced
    passes alternate, an untraced one first and last, so both kinds see the
    same machine state."""
    begin = time.perf_counter()
    passes = [bench.run_pass(0)]
    while True:
        if trace:
            passes.append(bench.run_pass(len(passes), SpanRecorder()))
            passes.append(bench.run_pass(len(passes)))
            if enough(len(passes) // 2, time.perf_counter() - begin, seconds, 1):
                return passes
        else:
            if enough(len(passes), time.perf_counter() - begin, seconds, min_passes):
                return passes
            passes.append(bench.run_pass(len(passes)))


def _check(bench: CompileBench, passes: list[PassResult], pinned: dict[str, str]) -> None:
    """Every pass agrees with the first, and the first with the file."""
    reference = passes[0].observations
    for key, observation in reference.items():
        if key in pinned and pinned[key] != observation.stable_digest:
            bench.fail(0, key, "summary differs from expected_seed0.json")
    for index, later in enumerate(passes[1:], start=1):
        for key, observation in later.observations.items():
            if key in reference and observation.full_digest != reference[key].full_digest:
                bench.fail(index, key, "summary differs from the first pass")


def _layer_metrics(
    bench: CompileBench, traced: list[PassResult], walls: list[float]
) -> dict[str, float]:
    """Counts from the first traced pass (they repeat exactly); seconds as
    medians over the traced passes."""
    first = traced[0]
    layers: dict[str, float] = {}
    measured = [first.observations[k] for k in bench.timed_keys if k in first.observations]
    for observation in measured:
        for name, count in observation.counts.items():
            layers[name] = layers.get(name, 0.0) + count
    proposed = layers.get("pnr.moves_proposed", 0.0)
    layers["pnr.accept_ratio"] = layers["pnr.moves_accepted"] / proposed if proposed else 0.0
    layers["config_gen.json_bytes"] = first.json_bytes
    per_pass = [layer_seconds(p, bench.timed_keys) for p in traced]
    for name in per_pass[0]:
        layers[name] = statistics.median(seconds[name] for seconds in per_pass)
    layers["trace.overhead_share"] = (
        statistics.median(bench.timed_wall(p.seconds) for p in traced) / statistics.median(walls) - 1.0
    )
    layers.update(bench.graph_layer_metrics())
    if layers["pnr.place_s"] > 0:
        layers["pnr.jobs_scaling"] = bench.pnr_jobs_scaling()
    layers["analysis.verify_s"] = bench.verify_seconds
    layers["analysis.violations"] = bench.violations
    return layers


def run_compile_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    expected: dict | None = None,
    points: list[Point] | None = None,
    min_passes: int = 3,
    spans_path: str | None = None,
) -> dict[str, Any]:
    """Run one compile workload and return its result record.  End-to-end
    numbers come from the untraced passes only."""
    bench = CompileBench(workload, seed, points)
    bench.clock = SpeedClock()
    with bench.clock:
        passes = _measure(bench, seconds, trace, min_passes)
    _check(bench, passes, (expected or {}).get(workload, {}))
    untraced = [p for p in passes if p.rec is None]
    traced = [p for p in passes if p.rec is not None]

    walls = [bench.timed_wall(p.seconds) for p in untraced]
    raw_walls = [bench.timed_wall(p.raw_seconds) for p in untraced]
    per_point = {
        point.key: [p.seconds[point.key] for p in untraced if point.key in p.seconds]
        for point in bench.points
    }
    medians = {key: statistics.median(v) for key, v in per_point.items() if v}
    timed_medians = [medians[key] for key in bench.timed_keys if key in medians]
    reference = passes[0].observations
    fixed = [reference[key] for key in bench.timed_keys if key in reference]
    paths = [o.critical_path_ns for o in fixed if o.critical_path_ns > 0]
    wall = stats.summarize(walls)
    gmean = statistics.geometric_mean
    metrics: dict[str, dict[str, Any]] = {
        "pass_wall_s": {"value": wall["median"], **wall, "raw": statistics.median(raw_walls)},
        "op_gmean_ms": {"value": gmean(timed_medians) * 1e3, "n": len(timed_medians)},
        "qor_throughput_gmean": {"value": gmean([o.throughput for o in fixed]), "n": len(fixed)},
        "qor_density_gmean": {"value": gmean([o.density for o in fixed]), "n": len(fixed)},
        "fail_share": {"value": len(bench.failed_ops) / bench.attempted, "n": bench.attempted},
        "qor_wirelength": {"value": sum(o.wirelength for o in fixed)},
        "qor_critical_path_ns": {"value": gmean(paths) if paths else 0.0, "n": len(paths)},
        "qor_config_bits": {"value": sum(o.config_bits for o in fixed)},
    }
    if trace:
        for name, value in _layer_metrics(bench, traced, walls).items():
            metrics[name] = {"value": value}
        if spans_path:
            dump_spans(spans_path, [p.rec for p in traced])
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "attempted": bench.attempted,
        "failed": len(bench.failed_ops),
        "failures": bench.failures[:20],
        "passes": len(untraced),
        "speed_factor": bench.clock.median_factor(),
        "metrics": metrics,
        "points": {
            key: {"median_ms": medians[key] * 1e3, "n": len(per_point[key])} for key in medians
        },
    }
