"""The metric tables: names, units, directions and regression bounds.

``BENCHMARK.json`` at the repo root lists the same names (a test keeps the
two in step).  Its contract wants every end-to-end metric from every
workload, so :data:`END_TO_END` holds only the metrics all four workloads
define; the ones that exist on some workloads only (:data:`WORKLOAD_ONLY`)
are listed there among the per-layer metrics and read 0 elsewhere.
``compare.py`` gates both groups with the bounds below.
"""

from __future__ import annotations

from dataclasses import dataclass

COMPILE_WORKLOADS = ("pnr_cold", "frontend_sweep", "deploy_large")
WORKLOADS = COMPILE_WORKLOADS + ("serve_mixed",)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str  # "lower" | "higher"
    #: share of the baseline median by which the metric may worsen before
    #: ``compare.py`` (and the driver) call it a regression; ``None`` for
    #: diagnostic metrics that are never gated.
    bound: float | None = None
    #: workloads that define the metric; ``None`` means all four.
    workloads: tuple[str, ...] | None = None


#: the deterministic model outputs must repeat exactly; the tolerance only
#: absorbs a reordered float sum.
EXACT = 1e-9

END_TO_END = (
    Metric("pass_wall_s", "s", "lower", 0.25),
    Metric("op_gmean_ms", "ms", "lower", 0.25),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.10),
    Metric("qor_throughput_gmean", "samples/s", "higher", EXACT),
    Metric("qor_density_gmean", "OPS/mm2", "higher", EXACT),
)

WORKLOAD_ONLY = (
    Metric("fail_share", "ratio", "lower", 0.0),
    Metric("qor_wirelength", "segments", "lower", 0.02, ("pnr_cold",)),
    Metric("qor_critical_path_ns", "ns", "lower", 0.02, ("pnr_cold",)),
    Metric("qor_config_bits", "bits", "lower", 0.0, ("pnr_cold", "deploy_large")),
    Metric("serve_rps", "req/s", "higher", 0.10, ("serve_mixed",)),
    Metric("serve_warm_p50_ms", "ms", "lower", 0.10, ("serve_mixed",)),
    Metric("serve_warm_p95_ms", "ms", "lower", 0.10, ("serve_mixed",)),
    Metric("serve_cold_p50_ms", "ms", "lower", 0.10, ("serve_mixed",)),
    Metric("serve_ok_share", "ratio", "higher", 0.0, ("serve_mixed",)),
)


def _layer(prefix: str, *specs: tuple[str, str, str]) -> tuple[Metric, ...]:
    return tuple(Metric(f"{prefix}.{n}", unit, better) for n, unit, better in specs)


LAYERS = (
    _layer("models", ("build_s", "s", "lower"))
    + _layer("graph", ("nodes", "count", "lower"), ("fingerprint_ms", "ms", "lower"))
    + _layer(
        "synthesizer",
        ("run_s", "s", "lower"),
        ("groups", "count", "lower"),
        ("min_pes", "count", "lower"),
    )
    + _layer(
        "partition",
        ("run_s", "s", "lower"),
        ("shards_s", "s", "lower"),
        ("shards", "count", "lower"),
        ("cut_values", "values", "lower"),
    )
    + _layer(
        "mapper",
        ("run_s", "s", "lower"),
        ("blocks", "count", "lower"),
        ("nets", "count", "lower"),
    )
    + _layer("perf", ("evaluate_s", "s", "lower"), ("bounds_s", "s", "lower"))
    + _layer(
        "pnr",
        ("place_s", "s", "lower"),
        ("rrgraph_s", "s", "lower"),
        ("route_s", "s", "lower"),
        ("timing_s", "s", "lower"),
        ("rounds", "count", "lower"),
        ("moves_proposed", "count", "lower"),
        ("moves_accepted", "count", "lower"),
        ("accept_ratio", "ratio", "higher"),
        ("route_iterations", "count", "lower"),
        ("nodes_expanded", "count", "lower"),
        ("rerouted_nets", "count", "lower"),
        ("domains", "count", "higher"),
        ("jobs_scaling", "ratio", "higher"),
    )
    + _layer(
        "config_gen",
        ("run_s", "s", "lower"),
        ("crossbars", "count", "lower"),
        ("routed_nets", "count", "lower"),
        ("to_json_s", "s", "lower"),
        ("json_bytes", "bytes", "lower"),
    )
    + _layer(
        "core",
        ("compile_self_s", "s", "lower"),
        ("unattributed_share", "ratio", "lower"),
        ("stage_cache_get_us", "us", "lower"),
        ("stage_cache_put_us", "us", "lower"),
        ("shared_cache_get_ms", "ms", "lower"),
        ("shared_cache_put_ms", "ms", "lower"),
        ("shared_cache_entry_bytes", "bytes", "lower"),
        ("stage_hit_ratio", "ratio", "higher"),
        ("shared_hit_ratio", "ratio", "higher"),
        ("dedup_hit_ratio", "ratio", "higher"),
        ("write_errors", "count", "lower"),
        ("pool_spawn_s", "s", "lower"),
        ("pool_roundtrip_ms", "ms", "lower"),
    )
    + _layer(
        "service",
        ("request_codec_us", "us", "lower"),
        ("fingerprint_us", "us", "lower"),
        ("response_codec_ms", "ms", "lower"),
        ("response_bytes", "bytes", "lower"),
        ("serve_request_warm_ms", "ms", "lower"),
        ("store_save_ms", "ms", "lower"),
        ("store_save_ms_at500", "ms", "lower"),
        ("overhead_ms", "ms", "lower"),
        ("compile_reported_ms", "ms", "lower"),
        ("warm_p99_ms", "ms", "lower"),
        ("burst_rps", "req/s", "higher"),
        ("coalesce_ratio", "ratio", "higher"),
        ("retried", "count", "lower"),
        ("displaced", "count", "lower"),
        ("rejected", "count", "lower"),
        ("deadline_expired", "count", "lower"),
    )
    + _layer("analysis", ("verify_s", "s", "lower"), ("violations", "count", "lower"))
    + _layer("trace", ("overhead_share", "ratio", "lower"))
)

#: what a ``--trace 1`` run reports, in ``BENCHMARK.json`` order.
PER_LAYER = WORKLOAD_ONLY + LAYERS

BY_NAME = {m.name: m for m in END_TO_END + PER_LAYER}


def gated(workload: str) -> list[Metric]:
    """The metrics ``compare.py`` applies a bound to on ``workload``."""
    return [
        m
        for m in END_TO_END + WORKLOAD_ONLY
        if m.workloads is None or workload in m.workloads
    ]
