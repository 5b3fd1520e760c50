"""Perf-regression benchmark harness for the compile pipeline's P&R hot path
and the serving runtime.

``run_bench`` pushes a set of model-zoo entries through the full pipeline
(synthesis -> mapping -> perf -> bounds -> P&R) via the service layer,
records per-stage wall-clock seconds (including the P&R-internal
place/route split), stage-cache behaviour (a second, warm compile of every
request) and solution-quality metrics (routed wirelength, critical path),
and emits the result as a ``BENCH_pnr.json`` report.

``run_serve_bench`` (``repro bench --serve``) measures the end-to-end
*serving* path on a repeated-model batch workload: the
:class:`~repro.service.runtime.ServingRuntime` (persistent warm pool +
cross-process shared stage cache + request coalescing) against the
fresh-pool / private-cache baseline, reporting requests/sec, p50/p99
latency, the shared-cache hit rate, cold-vs-warm batch times and the
speedup.  The serve section rides the same report file, so
``--check-regression`` guards both.

``run_chaos_bench`` (``repro bench --chaos``) measures the serving
runtime's *fault tolerance* on the same repeated-model batch workload:
a deterministic seeded fault plan (worker crashes, a hang, transient IO
faults and a corrupted shared-cache entry — see :mod:`repro.faults`) is
installed under the runtime, and the section records availability (every
job must still be served), whether the responses stayed bit-identical
(seconds-stripped) to a fault-free reference run of the same seed,
recovery time after pool breakage, and the retry/displacement counters.
The chaos section rides the same report file, and ``--check-regression``
enforces availability = 1.0 and bit-identity under the committed plan.

``compare_reports`` diffs a fresh report against a committed baseline with
configurable wall-time and quality thresholds, so CI can fail on perf
regressions without flaking on machine noise.

The CLI front-ends are ``repro bench`` (see :mod:`repro.cli`) and the
standalone ``benchmarks/harness.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Mapping, Sequence

from .core.cache import StageCache
from .core.shared_cache import SHARED_CACHE_ENV
from .errors import InvalidRequestError
from .models.zoo import BENCHMARK_MODELS, MODEL_BUILDERS
from .seeding import derive_seed
from .service import CompileRequest, FPSAClient, JobManager, ServingRuntime

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_BENCH_MODELS",
    "DEFAULT_CHAOS_MODELS",
    "DEFAULT_REPORT_PATH",
    "DEFAULT_SERVE_MODELS",
    "BenchEntry",
    "BenchReport",
    "resolve_bench_models",
    "run_bench",
    "run_serve_bench",
    "run_chaos_bench",
    "compare_reports",
    "main",
]

BENCH_SCHEMA_VERSION = 1

#: report file at the repository root; the committed copy is the baseline.
DEFAULT_REPORT_PATH = "BENCH_pnr.json"

#: models benchmarked by default: the slice of the zoo whose P&R runs in
#: seconds.  The big ImageNet models are reachable via --models: their
#: thousand-block netlists now *place* in seconds, but negotiated-congestion
#: routing at realistic channel widths still takes tens of minutes.
DEFAULT_BENCH_MODELS = ("MLP-500-100", "LeNet", "CIFAR-VGG17")

#: models of the serve-bench workload: front-end-dominated compiles (no
#: P&R), so the between-request costs (pool spawn, re-synthesis, duplicate
#: compiles) dominate — exactly what the serving runtime eliminates.
#: AlexNet anchors the mix with a synthesis heavy enough that re-doing it
#: every batch (the baseline) visibly hurts.
DEFAULT_SERVE_MODELS = ("MLP-500-100", "LeNet", "AlexNet")

#: models of the chaos bench: the cheap front-end-dominated pair keeps a
#: crash-and-retry round affordable while still spanning two distinct
#: compiles for the fault plan to pick victims from.
DEFAULT_CHAOS_MODELS = ("MLP-500-100", "LeNet")

_MODEL_ALIASES = {
    "mlp": "MLP-500-100",
    "mlp-500-100": "MLP-500-100",
    "lenet": "LeNet",
    "cifar": "CIFAR-VGG17",
    "cifar-vgg17": "CIFAR-VGG17",
    "alexnet": "AlexNet",
    "vgg": "VGG16",
    "vgg11": "VGG11",
    "vgg16": "VGG16",
    "googlenet": "GoogLeNet",
    "resnet50": "ResNet50",
    "resnet152": "ResNet152",
}


def resolve_bench_models(specs: Iterable[str] | str | None) -> list[str]:
    """Resolve user model specs (aliases, ``all``) to zoo names."""
    if specs is None:
        return list(DEFAULT_BENCH_MODELS)
    if isinstance(specs, str):
        specs = [s.strip() for s in specs.split(",") if s.strip()]
    resolved: list[str] = []
    for spec in specs:
        if spec.lower() in ("all", "zoo"):
            names: Sequence[str] = BENCHMARK_MODELS
        else:
            name = _MODEL_ALIASES.get(spec.lower(), spec)
            if name not in MODEL_BUILDERS:
                raise InvalidRequestError(
                    f"unknown bench model {spec!r}; known: "
                    f"{sorted(MODEL_BUILDERS)} (or aliases {sorted(_MODEL_ALIASES)})",
                    details={"model": spec},
                )
            names = (name,)
        for name in names:
            if name not in resolved:
                resolved.append(name)
    if not resolved:
        raise InvalidRequestError("no bench models given")
    return resolved


@dataclass(frozen=True)
class BenchEntry:
    """One benchmarked compile: timings, cache behaviour and P&R quality."""

    model: str
    duplication_degree: int
    channel_width: int
    seed: int
    #: chip count of the compile (> 1 for a partitioned configuration, with
    #: per-shard stage timings keyed ``pass@chipN`` and the partition cut
    #: metrics in ``quality``).
    num_chips: int = 1
    blocks: dict[str, int] = field(default_factory=dict)
    #: cold-compile wall-clock seconds per pipeline pass (``pnr`` included).
    stage_seconds: dict[str, float] = field(default_factory=dict)
    #: P&R-internal split (place / rrgraph / route / timing).
    pnr_stage_seconds: dict[str, float] = field(default_factory=dict)
    total_seconds: float = 0.0
    #: warm re-compile of the identical request through the same stage cache.
    warm_seconds: float = 0.0
    cache_hits: int = 0
    cache_misses: int = 0
    warm_cache_hits: int = 0
    #: routed-solution quality: equal-or-better is the bar optimizations
    #: must clear.
    quality: dict[str, float] = field(default_factory=dict)
    #: worker threads P&R ran with (``None`` = the engine default; absent
    #: from older reports).
    pnr_jobs: int | None = None

    @property
    def pnr_seconds(self) -> float:
        """Total P&R wall-time (summed over shards for partitioned runs)."""
        return sum(
            seconds
            for name, seconds in self.stage_seconds.items()
            if name == "pnr" or name.startswith("pnr@chip")
        )

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchEntry":
        return cls(
            model=str(data["model"]),
            duplication_degree=int(data.get("duplication_degree", 1)),
            channel_width=int(data.get("channel_width", 0)),
            seed=int(data.get("seed", 0)),
            num_chips=int(data.get("num_chips", 1)),
            blocks={k: int(v) for k, v in (data.get("blocks") or {}).items()},
            stage_seconds=dict(data.get("stage_seconds") or {}),
            pnr_stage_seconds=dict(data.get("pnr_stage_seconds") or {}),
            total_seconds=float(data.get("total_seconds", 0.0)),
            warm_seconds=float(data.get("warm_seconds", 0.0)),
            cache_hits=int(data.get("cache_hits", 0)),
            cache_misses=int(data.get("cache_misses", 0)),
            warm_cache_hits=int(data.get("warm_cache_hits", 0)),
            quality=dict(data.get("quality") or {}),
            # older reports lack the field, and may carry keys this class
            # no longer has: keys are read by name, the rest is ignored
            pnr_jobs=(
                int(data["pnr_jobs"]) if data.get("pnr_jobs") is not None else None
            ),
        )


@dataclass
class BenchReport:
    """A full benchmark run: one :class:`BenchEntry` per model, plus the
    optional serving-runtime section of ``repro bench --serve``."""

    entries: list[BenchEntry] = field(default_factory=list)
    created_at: float = 0.0
    #: serving-runtime benchmark (see :func:`run_serve_bench`); ``None``
    #: when the serve bench did not run.
    serve: dict[str, Any] | None = None
    #: fault-tolerance benchmark (see :func:`run_chaos_bench`); ``None``
    #: when the chaos bench did not run.
    chaos: dict[str, Any] | None = None
    schema_version: int = BENCH_SCHEMA_VERSION

    @property
    def total_pnr_seconds(self) -> float:
        return sum(e.pnr_seconds for e in self.entries)

    def entry(
        self, model: str, duplication_degree: int, num_chips: int = 1
    ) -> BenchEntry | None:
        for e in self.entries:
            if (
                e.model == model
                and e.duplication_degree == duplication_degree
                and e.num_chips == num_chips
            ):
                return e
        return None

    def to_dict(self) -> dict[str, Any]:
        data = {
            "schema_version": self.schema_version,
            "created_at": self.created_at,
            "total_pnr_seconds": self.total_pnr_seconds,
            "entries": [e.to_dict() for e in self.entries],
        }
        if self.serve is not None:
            data["serve"] = dict(self.serve)
        if self.chaos is not None:
            data["chaos"] = dict(self.chaos)
        return data

    def to_json(self, indent: int | None = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(self.to_json())
            handle.write("\n")

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "BenchReport":
        version = data.get("schema_version", BENCH_SCHEMA_VERSION)
        if version != BENCH_SCHEMA_VERSION:
            raise InvalidRequestError(
                f"unsupported bench report schema_version {version!r}; "
                f"this build understands {BENCH_SCHEMA_VERSION}",
                details={"got": version, "supported": BENCH_SCHEMA_VERSION},
            )
        return cls(
            entries=[BenchEntry.from_dict(e) for e in data.get("entries", ())],
            created_at=float(data.get("created_at", 0.0)),
            serve=dict(data["serve"]) if data.get("serve") else None,
            # absent in reports written before the chaos harness existed
            chaos=dict(data["chaos"]) if data.get("chaos") else None,
        )

    @classmethod
    def load(cls, path: str) -> "BenchReport":
        with open(path, "r", encoding="utf-8") as handle:
            return cls.from_dict(json.load(handle))


def _bench_one(model: str, num_chips: int = 1, **knobs: Any) -> BenchEntry:
    """Benchmark one configuration (``knobs`` are compile knobs): a cold
    and a warm compile through a private stage cache."""
    client = FPSAClient(cache=StageCache())
    request = CompileRequest(
        model=model,
        run_pnr=True,
        num_chips=num_chips if num_chips != 1 else None,
        **knobs,
    )
    cold = client.serve(request)
    cold.response.raise_for_status()
    warm = client.serve(request)
    warm.response.raise_for_status()

    summary = cold.response.summary
    timings = cold.response.timings
    warm_timings = warm.response.timings
    pnr = summary.pnr or {}
    pnr_stage_seconds = {
        key.removesuffix("_seconds"): value
        for key, value in pnr.items()
        if key.endswith("_seconds")
    }
    quality = {
        key: value for key, value in pnr.items() if not key.endswith("_seconds")
    }
    if summary.partition is not None:
        # partitioned configurations: guard the cut quality alongside the
        # per-shard P&R quality (the top-level ``pnr`` section is absent;
        # wirelength/critical-path come from the shard results instead)
        quality["cut_size"] = float(summary.partition.get("cut_size", 0))
        quality["cut_values_per_sample"] = float(
            summary.partition.get("cut_values_per_sample", 0.0)
        )
        wirelength = 0.0
        critical = 0.0
        live = cold.result
        for shard_result in (live.shard_results if live is not None else None) or ():
            if shard_result.pnr is not None:
                wirelength += shard_result.pnr.total_wirelength
                critical = max(critical, shard_result.pnr.critical_path_ns)
                # keep the place/rrgraph/route/timing split visible for
                # partitioned runs too, summed over the shards
                for stage, seconds in shard_result.pnr.stage_seconds.items():
                    pnr_stage_seconds[stage] = (
                        pnr_stage_seconds.get(stage, 0.0) + seconds
                    )
        if wirelength:
            quality["total_wirelength"] = wirelength
        if critical:
            quality["critical_path_ns"] = critical
    return BenchEntry(
        model=model,
        duplication_degree=request.duplication_degree,
        channel_width=request.pnr_channel_width,
        seed=request.seed,
        num_chips=num_chips,
        blocks=dict(summary.blocks or {}),
        stage_seconds=timings.seconds_by_stage(),
        pnr_stage_seconds=pnr_stage_seconds,
        total_seconds=timings.total_seconds,
        warm_seconds=warm_timings.total_seconds,
        cache_hits=timings.cache_hits,
        cache_misses=timings.cache_misses,
        warm_cache_hits=warm_timings.cache_hits,
        quality=quality,
        pnr_jobs=request.pnr_jobs,
    )


def _largest_model(models: Sequence[str]) -> str:
    """The largest of the given zoo models (by benchmark-zoo size order)."""
    ordered = {name: i for i, name in enumerate(BENCHMARK_MODELS)}
    return max(models, key=lambda m: ordered.get(m, -1))


def run_bench(
    models: Iterable[str] | str | None = None,
    duplication_degree: int = 1,
    channel_width: int = 24,
    seed: int = 0,
    partition_chips: Sequence[int] = (2, 4),
    pnr_jobs: int | None = None,
    progress=None,
) -> BenchReport:
    """Benchmark the full pipeline (with P&R) over the given models.

    Every model is compiled twice through a private stage cache: cold
    (every pass runs, timed per stage) and warm (the identical request
    again, recording how much of the pipeline the cache absorbs).

    ``partition_chips`` additionally benchmarks the *largest* resolved
    model at those chip counts through the partitioned flow, so the
    regression gate covers partitioned wall-time and cut quality too.
    """
    report = BenchReport(created_at=time.time())
    resolved = resolve_bench_models(models)
    knobs = {
        "duplication_degree": duplication_degree,
        "pnr_channel_width": channel_width,
        "seed": seed,
        "pnr_jobs": pnr_jobs,
    }
    for model in resolved:
        if progress is not None:
            progress(f"bench {model} (duplication {duplication_degree}) ...")
        report.entries.append(_bench_one(model, **knobs))
    if partition_chips:
        largest = _largest_model(resolved)
        for chips in partition_chips:
            if chips <= 1:
                continue
            if progress is not None:
                progress(
                    f"bench {largest} (duplication {duplication_degree}, "
                    f"{chips} chips) ..."
                )
            report.entries.append(_bench_one(largest, num_chips=chips, **knobs))
    return report


def _percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile of ``values`` (no numpy dependency here)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    index = min(len(ordered) - 1, int(round(fraction * (len(ordered) - 1))))
    return ordered[index]


def _summary_key(response) -> dict[str, Any]:
    """The quality-bearing part of a response (wall-clock fields excluded:
    the P&R section embeds its stage timings in the summary)."""
    summary = response.summary
    if summary is None:
        return {}
    data = summary.to_dict()
    for section in data.values():
        if isinstance(section, dict):
            for key in [k for k in section if k.endswith("_seconds")]:
                del section[key]
    return data


def run_serve_bench(
    models: Iterable[str] | str | None = None,
    duplications: Sequence[int] = (1, 2),
    repeats: int = 5,
    copies: int = 3,
    workers: int = 2,
    seed: int = 0,
    progress=None,
) -> dict[str, Any]:
    """Benchmark the serving runtime against the fresh-pool baseline.

    The workload is ``repeats`` batches of a *repeated-model* request mix:
    every (model, duplication) pair appears ``copies`` times per batch —
    the traffic shape of a sweep/parameter-server front-end.  It is served
    twice:

    * **baseline** — each batch through a *fresh* :class:`JobManager`
      (fresh process pool, per-worker private caches, no coalescing):
      the pre-runtime serving path, paying pool spawn + re-synthesis per
      batch;
    * **runtime** — all batches through one :class:`ServingRuntime`
      (persistent warm pool, cross-process shared stage cache, request
      coalescing).

    Returns the serve section of the bench report: requests/sec and total
    seconds for both paths, the speedup, runtime p50/p99 latency, the
    shared-cache hit rate, cold-vs-warm batch seconds, coalescing
    counters, and whether the two paths produced identical result
    summaries (they must: the runtime may only change *when* work
    happens, never *what* it computes).
    """
    if repeats < 2:
        raise InvalidRequestError("serve bench needs repeats >= 2 (cold + warm)")
    if copies < 1:
        raise InvalidRequestError("copies must be >= 1")
    # insulate both paths from REPRO_SHARED_CACHE: a pre-warmed user
    # directory would hand the "fresh" baseline shared-tier hits and rob
    # the runtime of its cold batch, corrupting the measured speedup
    import os

    from .core.shared_cache import SHARED_CACHE_ENV

    env_dir = os.environ.pop(SHARED_CACHE_ENV, None)
    try:
        return _run_serve_bench(
            models, duplications, repeats, copies, workers, seed, progress
        )
    finally:
        if env_dir is not None:
            os.environ[SHARED_CACHE_ENV] = env_dir


def _run_serve_bench(
    models,
    duplications: Sequence[int],
    repeats: int,
    copies: int,
    workers: int,
    seed: int,
    progress,
) -> dict[str, Any]:
    resolved = resolve_bench_models(models if models is not None else DEFAULT_SERVE_MODELS)
    unique_requests = [
        CompileRequest(model=model, duplication_degree=degree, seed=seed)
        for model in resolved
        for degree in duplications
    ]
    batch = [request for request in unique_requests for _ in range(copies)]
    batches = [list(batch) for _ in range(repeats)]
    total_requests = sum(len(b) for b in batches)

    # baseline: fresh pool + private caches + no coalescing, per batch
    if progress is not None:
        progress(
            f"serve bench: baseline ({repeats} x {len(batch)} requests, "
            f"fresh pool each batch) ..."
        )
    baseline_responses: list = []
    baseline_start = time.perf_counter()
    for requests in batches:
        with JobManager(
            max_workers=workers, cache=StageCache(), coalesce=False
        ) as manager:
            job_ids = manager.submit_batch(requests)
            baseline_responses.extend(
                manager.result(job_id) for job_id in job_ids
            )
    baseline_seconds = time.perf_counter() - baseline_start

    # runtime: one warm pool + shared cache + coalescing across all batches
    if progress is not None:
        progress(
            f"serve bench: runtime ({repeats} x {len(batch)} requests, "
            f"one warm pool) ..."
        )
    runtime_responses: list = []
    batch_seconds: list[float] = []
    with ServingRuntime(max_workers=workers) as runtime:
        runtime_start = time.perf_counter()
        for requests in batches:
            batch_start = time.perf_counter()
            runtime_responses.extend(runtime.serve_batch(requests))
            batch_seconds.append(time.perf_counter() - batch_start)
        runtime_seconds = time.perf_counter() - runtime_start
        latencies = runtime.latencies()
        stats = runtime.stats()

    for response in baseline_responses + runtime_responses:
        response.raise_for_status()
    summaries_identical = all(
        _summary_key(a) == _summary_key(b)
        for a, b in zip(baseline_responses, runtime_responses, strict=True)
    )

    shared_hits = sum(
        r.timings.shared_cache_hits for r in runtime_responses if r.timings
    )
    shared_misses = sum(
        r.timings.shared_cache_misses for r in runtime_responses if r.timings
    )
    shared_lookups = shared_hits + shared_misses
    baseline_rps = total_requests / baseline_seconds if baseline_seconds else 0.0
    runtime_rps = total_requests / runtime_seconds if runtime_seconds else 0.0
    return {
        "models": list(resolved),
        "duplications": list(duplications),
        "repeats": repeats,
        "copies": copies,
        "workers": workers,
        "seed": seed,
        "unique_requests": len(unique_requests),
        "total_requests": total_requests,
        "baseline_seconds": baseline_seconds,
        "baseline_rps": baseline_rps,
        "runtime_seconds": runtime_seconds,
        "runtime_rps": runtime_rps,
        "speedup": runtime_rps / baseline_rps if baseline_rps else 0.0,
        "cold_batch_seconds": batch_seconds[0] if batch_seconds else 0.0,
        "warm_batch_seconds": (
            sum(batch_seconds[1:]) / (len(batch_seconds) - 1)
            if len(batch_seconds) > 1
            else 0.0
        ),
        "p50_ms": _percentile(latencies, 0.50) * 1e3,
        "p99_ms": _percentile(latencies, 0.99) * 1e3,
        "shared_cache_hits": shared_hits,
        "shared_cache_misses": shared_misses,
        "shared_cache_hit_rate": (
            shared_hits / shared_lookups if shared_lookups else 0.0
        ),
        "submitted": stats["submitted"],
        "coalesced": stats["coalesced"],
        "summaries_identical": summaries_identical,
    }


def format_serve_section(serve: Mapping[str, Any]) -> str:
    """Human-readable summary of one serve-bench section."""
    lines = [
        f"serve bench: {serve['total_requests']} requests "
        f"({serve['unique_requests']} unique x {serve['copies']} copies "
        f"x {serve['repeats']} batches), {serve['workers']} workers",
        f"  baseline (fresh pool, private caches): "
        f"{serve['baseline_seconds']:.2f}s  "
        f"{serve['baseline_rps']:.1f} req/s",
        f"  runtime (warm pool, shared cache, coalescing): "
        f"{serve['runtime_seconds']:.2f}s  {serve['runtime_rps']:.1f} req/s  "
        f"-> {serve['speedup']:.1f}x",
        f"  latency p50 {serve['p50_ms']:.1f} ms  p99 {serve['p99_ms']:.1f} ms  "
        f"cold batch {serve['cold_batch_seconds']:.2f}s  "
        f"warm batch {serve['warm_batch_seconds']:.2f}s",
        f"  shared cache: {serve['shared_cache_hits']} hit(s), "
        f"{serve['shared_cache_misses']} miss(es) "
        f"({serve['shared_cache_hit_rate']:.0%})  "
        f"coalesced {serve['coalesced']}/{serve['submitted']}",
        f"  summaries identical to baseline: "
        f"{'yes' if serve['summaries_identical'] else 'NO'}",
    ]
    return "\n".join(lines)


def _chaos_plan(seed: int, requests: Sequence[CompileRequest]):
    """The deterministic fault plan of one chaos-bench run.

    Victims are drawn from the unique requests by a generator seeded off
    the master seed (same seed -> same plan -> same failures, replayable
    byte for byte): two worker crashes and one transient worker IO fault
    on distinct requests, one short worker hang on a fourth, plus
    transient-write, corrupt-write and transient-read faults on the
    shared stage cache.  Every worker-compile fault matches ``attempt 0``
    only, so it is self-limiting: the supervised retry of the same
    request runs clean.
    """
    from .faults import (
        KIND_CORRUPT,
        KIND_CRASH,
        KIND_HANG,
        KIND_IO_ERROR,
        SITE_SHARED_CACHE_GET,
        SITE_SHARED_CACHE_PUT,
        SITE_WORKER_COMPILE,
        FaultPlan,
        FaultSpec,
    )

    rng = random.Random(derive_seed(seed, "chaos-plan"))
    victims = list(requests)
    rng.shuffle(victims)

    def compile_fault(index: int, kind: str, seconds: float = 0.1) -> FaultSpec:
        victim = victims[index % len(victims)]
        return FaultSpec(
            site=SITE_WORKER_COMPILE,
            kind=kind,
            seconds=seconds,
            match={
                "model": victim.model,
                "duplication_degree": victim.duplication_degree,
                "attempt": 0,
            },
        )

    return FaultPlan(
        faults=(
            compile_fault(0, KIND_CRASH),
            compile_fault(1, KIND_CRASH),
            compile_fault(2, KIND_IO_ERROR),
            compile_fault(3, KIND_HANG, seconds=0.25),
            FaultSpec(site=SITE_SHARED_CACHE_PUT, kind=KIND_IO_ERROR, at=0),
            FaultSpec(site=SITE_SHARED_CACHE_PUT, kind=KIND_CORRUPT, at=2),
            FaultSpec(site=SITE_SHARED_CACHE_GET, kind=KIND_IO_ERROR, at=1),
        ),
        seed=seed,
    )


def run_chaos_bench(
    models: Iterable[str] | str | None = None,
    duplications: Sequence[int] = (1, 2),
    copies: int = 2,
    rounds: int = 2,
    workers: int = 2,
    seed: int = 0,
    deadline_s: float = 120.0,
    max_retries: int = 3,
    progress=None,
) -> dict[str, Any]:
    """Benchmark the serving runtime's fault tolerance under a seeded plan.

    The workload (every (model, duplication) pair, ``copies`` times, served
    in ``rounds`` sequential batches) runs twice through a
    :class:`ServingRuntime`: once fault-free (the reference), once with the
    deterministic :func:`_chaos_plan` installed via the fault-plan
    environment variable so every worker inherits it.  The section records
    **availability** (served-ok over total — the floor is 1.0: with
    supervision and retries, the committed plan must not cost a single
    response), whether the chaos responses stayed **bit-identical**
    (seconds-stripped summaries) to the reference, pool-health counters
    (breakages, respawns, recovery seconds), retry/displacement counters,
    and the degraded cache writes.

    ``rounds >= 2`` matters for coverage: when the first crash breaks the
    pool, the second crash victim is usually *displaced* (its in-flight
    attempt fails with the pool) and retried at attempt 1, where the
    attempt-0 crash spec no longer matches — the next round resubmits it
    at attempt 0 on fresh workers, so the plan reliably kills at least
    two workers across the run.
    """
    if copies < 1:
        raise InvalidRequestError("copies must be >= 1")
    if rounds < 1:
        raise InvalidRequestError("rounds must be >= 1")
    from .faults import FAULT_PLAN_ENV

    # insulate from the user environment: an inherited fault plan would
    # poison the reference run, and a pre-warmed shared cache would
    # change which injected cache faults ever fire
    env_saved = {
        var: os.environ.pop(var, None)
        for var in (SHARED_CACHE_ENV, FAULT_PLAN_ENV)
    }
    try:
        return _run_chaos_bench(
            models,
            duplications,
            copies,
            rounds,
            workers,
            seed,
            deadline_s,
            max_retries,
            progress,
        )
    finally:
        for var, value in env_saved.items():
            if value is not None:
                os.environ[var] = value


def _run_chaos_bench(
    models,
    duplications: Sequence[int],
    copies: int,
    rounds: int,
    workers: int,
    seed: int,
    deadline_s: float,
    max_retries: int,
    progress,
) -> dict[str, Any]:
    from .faults import FAULT_PLAN_ENV

    resolved = resolve_bench_models(
        models if models is not None else DEFAULT_CHAOS_MODELS
    )
    unique_requests = [
        CompileRequest(
            model=model,
            duplication_degree=degree,
            seed=seed,
            deadline_s=deadline_s,
            max_retries=max_retries,
        )
        for model in resolved
        for degree in duplications
    ]
    batch = [request for request in unique_requests for _ in range(copies)]
    total_requests = len(batch) * rounds

    if progress is not None:
        progress(
            f"chaos bench: fault-free reference "
            f"({rounds} x {len(batch)} requests) ..."
        )
    reference: list = []
    with ServingRuntime(max_workers=workers) as runtime:
        for _ in range(rounds):
            reference.extend(runtime.serve_batch(batch))
    for response in reference:
        response.raise_for_status()

    plan = _chaos_plan(seed, unique_requests)
    if progress is not None:
        progress(
            f"chaos bench: same workload under {len(plan.faults)} seeded "
            f"faults ..."
        )
    # the environment route reaches every (lazily forked and re-forked)
    # worker, including the ones a pool rebuild spawns mid-run
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    try:
        chaos: list = []
        chaos_start = time.perf_counter()
        with ServingRuntime(max_workers=workers) as runtime:
            for _ in range(rounds):
                chaos.extend(runtime.serve_batch(batch))
            stats = runtime.stats()
        chaos_seconds = time.perf_counter() - chaos_start
    finally:
        del os.environ[FAULT_PLAN_ENV]

    ok = sum(1 for response in chaos if response.ok)
    summaries_identical = all(
        _summary_key(a) == _summary_key(b)
        for a, b in zip(reference, chaos, strict=True)
    )
    write_errors = sum(
        response.timings.write_errors for response in chaos if response.timings
    )
    health = stats.get("pool_health") or {}
    return {
        "models": list(resolved),
        "duplications": list(duplications),
        "copies": copies,
        "rounds": rounds,
        "workers": workers,
        "seed": seed,
        "deadline_s": deadline_s,
        "max_retries": max_retries,
        "fault_plan": plan.to_dict(),
        "total_requests": total_requests,
        "ok_requests": ok,
        "availability": ok / total_requests if total_requests else 0.0,
        "summaries_identical": summaries_identical,
        "retried": stats["retried"],
        "displaced": stats["displaced"],
        "rejected": stats["rejected"],
        "deadline_expired": stats["deadline_expired"],
        "broken_pool_events": int(health.get("broken_pool_events", 0)),
        "respawns": int(health.get("respawns", 0)),
        "last_recovery_seconds": float(health.get("last_recovery_seconds", 0.0)),
        "total_recovery_seconds": float(
            health.get("total_recovery_seconds", 0.0)
        ),
        "cache_write_errors": write_errors,
        "chaos_seconds": chaos_seconds,
    }


def format_chaos_section(chaos: Mapping[str, Any]) -> str:
    """Human-readable summary of one chaos-bench section."""
    lines = [
        f"chaos bench: {chaos['total_requests']} requests "
        f"({chaos['rounds']} rounds x {chaos['copies']} copies), "
        f"{chaos['workers']} workers, "
        f"{len((chaos.get('fault_plan') or {}).get('faults', ()))} seeded "
        f"faults (seed {chaos['seed']})",
        f"  availability: {chaos['ok_requests']}/{chaos['total_requests']} "
        f"({chaos['availability']:.0%}) in {chaos['chaos_seconds']:.2f}s",
        f"  pool: {chaos['broken_pool_events']} breakage(s), "
        f"{chaos['respawns']} respawn(s), last recovery "
        f"{chaos['last_recovery_seconds'] * 1e3:.1f} ms",
        f"  retries: {chaos['retried']} retried, {chaos['displaced']} "
        f"displaced, {chaos['deadline_expired']} deadline-expired, "
        f"{chaos['cache_write_errors']} degraded cache write(s)",
        f"  responses identical to fault-free reference: "
        f"{'yes' if chaos['summaries_identical'] else 'NO'}",
    ]
    return "\n".join(lines)


def compare_reports(
    current: BenchReport,
    baseline: BenchReport,
    time_threshold: float = 2.5,
    quality_tolerance: float = 0.10,
    serve_min_speedup: float = 3.0,
    chaos_min_availability: float = 1.0,
) -> list[str]:
    """Regressions of ``current`` against ``baseline``; empty when clean.

    A model regresses when its P&R wall-time exceeds the baseline by more
    than ``time_threshold``x (generous by default: benchmarks run on
    heterogeneous machines) or when a quality metric (total wirelength,
    critical path) worsens by more than ``quality_tolerance`` relative.

    A serve section regresses when the runtime-vs-baseline speedup falls
    below ``serve_min_speedup`` (the speedup is a same-machine ratio, so
    it needs no machine-noise allowance), or when the runtime produced
    result summaries that differ from the fresh-pool baseline's (the
    caches/coalescing may change *when* work happens, never *what* it
    computes).

    A chaos section regresses when availability under the seeded fault
    plan falls below ``chaos_min_availability`` (1.0 by default: with
    supervision, retries and deadlines in place, the committed plan must
    not cost a single response), when the chaos responses differed from
    the fault-free reference's seconds-stripped summaries, or when the
    plan never broke the pool (``broken_pool_events`` of 0 means the run
    proved nothing — the harness, not the runtime, regressed).
    """
    if time_threshold <= 0:
        raise InvalidRequestError("time_threshold must be positive")
    if quality_tolerance < 0:
        raise InvalidRequestError("quality_tolerance must be >= 0")
    regressions: list[str] = []
    serve = current.serve
    if serve is not None:
        speedup = float(serve.get("speedup", 0.0))
        if speedup < serve_min_speedup:
            regressions.append(
                f"serve: runtime speedup {speedup:.2f}x is below the "
                f"{serve_min_speedup:.1f}x floor "
                f"({serve.get('runtime_rps', 0.0):.1f} req/s vs baseline "
                f"{serve.get('baseline_rps', 0.0):.1f} req/s)"
            )
        if serve.get("summaries_identical") is False:
            regressions.append(
                "serve: runtime responses differ from the fresh-pool "
                "baseline's result summaries"
            )
    chaos = current.chaos
    if chaos is not None:
        availability = float(chaos.get("availability", 0.0))
        if availability < chaos_min_availability:
            regressions.append(
                f"chaos: availability {availability:.1%} under the seeded "
                f"fault plan is below the {chaos_min_availability:.0%} floor "
                f"({chaos.get('ok_requests', 0)}/"
                f"{chaos.get('total_requests', 0)} served)"
            )
        if chaos.get("summaries_identical") is False:
            regressions.append(
                "chaos: responses under the fault plan differ from the "
                "fault-free reference's result summaries (retries must be "
                "bit-identical)"
            )
        if int(chaos.get("broken_pool_events", 0)) < 1:
            regressions.append(
                "chaos: the fault plan never broke the worker pool "
                "(0 broken-pool events) — the run exercised nothing"
            )
    for entry in current.entries:
        base = baseline.entry(entry.model, entry.duplication_degree, entry.num_chips)
        if base is None:
            continue
        label = entry.model
        if entry.num_chips > 1:
            label = f"{entry.model} ({entry.num_chips} chips)"
        if base.pnr_seconds > 0 and entry.pnr_seconds > base.pnr_seconds * time_threshold:
            regressions.append(
                f"{label}: P&R took {entry.pnr_seconds:.3f}s, more than "
                f"{time_threshold:.1f}x the baseline {base.pnr_seconds:.3f}s"
            )
        # cut metrics guard partition quality: a worse partitioner shows up
        # as more cut edges or more cross-chip traffic at equal inputs
        for metric in (
            "total_wirelength",
            "critical_path_ns",
            "cut_size",
            "cut_values_per_sample",
        ):
            now = entry.quality.get(metric)
            was = base.quality.get(metric)
            if now is None or was is None or was <= 0:
                continue
            if now > was * (1.0 + quality_tolerance):
                regressions.append(
                    f"{label}: {metric} worsened to {now:g} "
                    f"(baseline {was:g}, tolerance {quality_tolerance:.0%})"
                )
    return regressions


def format_table(report: BenchReport) -> str:
    """Human-readable per-model table of a report."""
    header = (
        f"{'model':<14} {'dup':>4} {'chips':>5} {'blocks':>7} {'pnr s':>8} "
        f"{'place s':>8} {'route s':>8} {'total s':>8} {'warm s':>8} "
        f"{'wirelen':>8} {'crit ns':>8} {'cut':>5}"
    )
    lines = [header, "-" * len(header)]
    for e in report.entries:
        n_blocks = sum(e.blocks.values())
        lines.append(
            f"{e.model:<14} {e.duplication_degree:>4} {e.num_chips:>5} {n_blocks:>7} "
            f"{e.pnr_seconds:>8.3f} "
            f"{e.pnr_stage_seconds.get('place', 0.0):>8.3f} "
            f"{e.pnr_stage_seconds.get('route', 0.0):>8.3f} "
            f"{e.total_seconds:>8.3f} {e.warm_seconds:>8.3f} "
            f"{e.quality.get('total_wirelength', 0.0):>8.0f} "
            f"{e.quality.get('critical_path_ns', 0.0):>8.2f} "
            f"{e.quality.get('cut_size', 0.0):>5.0f}"
        )
    lines.append(
        f"{'TOTAL':<14} {'':>4} {'':>5} {'':>7} {report.total_pnr_seconds:>8.3f}"
    )
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run the P&R perf benchmark over the model zoo and "
        "compare against a committed baseline.",
    )
    add_bench_arguments(parser)
    return parser


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """The bench flags, shared by ``repro bench`` and benchmarks/harness.py."""
    parser.add_argument(
        "--models", default=None, metavar="LIST",
        help="comma-separated models (aliases like lenet,mlp,cifar or 'all'; "
        f"default: {','.join(DEFAULT_BENCH_MODELS)})",
    )
    parser.add_argument(
        "--duplication", type=int, default=1, help="duplication degree (default: 1)",
    )
    parser.add_argument(
        "--channel-width", type=int, default=24,
        help="routing channel width (default: 24)",
    )
    parser.add_argument(
        "--seed", type=int, default=0, help="master seed for the compiles",
    )
    parser.add_argument(
        "--pnr-jobs", type=int, default=None, metavar="N",
        help="worker threads for P&R (default: the engine default; "
        "results are bit-identical for any value)",
    )
    parser.add_argument(
        "--partition-chips", default="2,4", metavar="LIST",
        help="also bench the largest model partitioned across these chip "
        "counts (comma-separated; empty string disables; default: 2,4)",
    )
    parser.add_argument(
        "--output", metavar="FILE", default=DEFAULT_REPORT_PATH,
        help=f"write the report here (default: {DEFAULT_REPORT_PATH})",
    )
    parser.add_argument(
        "--baseline", metavar="FILE", default=DEFAULT_REPORT_PATH,
        help="baseline report to compare against with --check-regression "
        f"(default: the committed {DEFAULT_REPORT_PATH})",
    )
    parser.add_argument(
        "--check-regression", action="store_true",
        help="exit non-zero when the run regresses against the baseline",
    )
    parser.add_argument(
        "--threshold", type=float, default=2.5,
        help="wall-time regression threshold, x baseline (default: 2.5)",
    )
    parser.add_argument(
        "--quality-tolerance", type=float, default=0.10,
        help="relative quality (wirelength/critical-path) tolerance "
        "(default: 0.10)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the report as JSON on stdout instead of the table",
    )
    serve = parser.add_argument_group(
        "serving runtime benchmark (--serve)",
        "measure end-to-end serve throughput of the warm-pool/shared-cache/"
        "coalescing runtime against the fresh-pool baseline on a "
        "repeated-model batch workload; replaces the P&R bench for this "
        "run (the report's P&R entries are carried over from --output)",
    )
    serve.add_argument(
        "--serve", action="store_true",
        help="run the serving-runtime benchmark instead of the P&R bench",
    )
    serve.add_argument(
        "--serve-models", default=None, metavar="LIST",
        help="models of the serve workload (comma-separated; default: "
        f"{','.join(DEFAULT_SERVE_MODELS)})",
    )
    serve.add_argument(
        "--serve-repeats", type=int, default=5, metavar="N",
        help="batches served (first is cold, rest warm; default: 5)",
    )
    serve.add_argument(
        "--serve-copies", type=int, default=3, metavar="N",
        help="copies of every unique request per batch (default: 3)",
    )
    serve.add_argument(
        "--serve-workers", type=int, default=2, metavar="N",
        help="worker processes for both paths (default: 2)",
    )
    serve.add_argument(
        "--serve-min-speedup", type=float, default=3.0, metavar="X",
        help="--check-regression fails when the runtime speedup falls "
        "below this floor (default: 3.0)",
    )
    chaos = parser.add_argument_group(
        "fault-tolerance benchmark (--chaos)",
        "serve a repeated-model batch workload under a deterministic "
        "seeded fault plan (worker crashes, a hang, transient/corrupt "
        "cache IO) and record availability, recovery and bit-identity "
        "against a fault-free reference; replaces the P&R bench for this "
        "run (other report sections are carried over)",
    )
    chaos.add_argument(
        "--chaos", action="store_true",
        help="run the fault-tolerance benchmark instead of the P&R bench",
    )
    chaos.add_argument(
        "--chaos-models", default=None, metavar="LIST",
        help="models of the chaos workload (comma-separated; default: "
        f"{','.join(DEFAULT_CHAOS_MODELS)})",
    )
    chaos.add_argument(
        "--chaos-copies", type=int, default=2, metavar="N",
        help="copies of every unique request per round (default: 2)",
    )
    chaos.add_argument(
        "--chaos-rounds", type=int, default=2, metavar="N",
        help="sequential rounds of the batch (>= 2 lets a crash victim "
        "displaced in one round crash for real in the next; default: 2)",
    )
    chaos.add_argument(
        "--chaos-workers", type=int, default=2, metavar="N",
        help="worker processes for both runs (default: 2)",
    )
    chaos.add_argument(
        "--chaos-deadline", type=float, default=120.0, metavar="S",
        help="per-request deadline in seconds (default: 120)",
    )
    chaos.add_argument(
        "--chaos-max-retries", type=int, default=3, metavar="N",
        help="per-request retry budget for retriable faults (default: 3)",
    )
    chaos.add_argument(
        "--chaos-min-availability", type=float, default=1.0, metavar="X",
        help="--check-regression fails when availability under the fault "
        "plan falls below this floor (default: 1.0 — no request may be "
        "lost)",
    )


def _load_report_if_any(path: str | None) -> BenchReport | None:
    if not path:
        return None
    try:
        return BenchReport.load(path)
    except (FileNotFoundError, ValueError, InvalidRequestError):
        return None


def run_from_args(args: argparse.Namespace) -> int:
    """Execute a parsed bench invocation; returns the exit code.

    The report file carries both the P&R entries and the serve section; a
    run only replaces the section it measured and carries the other over
    from the existing ``--output`` file, so alternating ``repro bench``
    and ``repro bench --serve`` invocations keep one coherent baseline.
    """
    # load the baseline before the report file gets overwritten: the
    # default --output and --baseline are the same committed path
    baseline = None
    if args.check_regression:
        try:
            baseline = BenchReport.load(args.baseline)
        except FileNotFoundError:
            print(
                f"bench: no baseline at {args.baseline}; skipping the "
                f"regression check",
                file=sys.stderr,
            )
        except (ValueError, InvalidRequestError) as exc:
            # a corrupt or incompatible baseline must fail loudly, not crash
            print(f"bench: unreadable baseline {args.baseline}: {exc}", file=sys.stderr)
            return 2
    progress = None if args.json else lambda msg: print(msg, file=sys.stderr)
    previous = _load_report_if_any(args.output)
    serve_mode = getattr(args, "serve", False)
    chaos_mode = getattr(args, "chaos", False)
    if serve_mode and chaos_mode:
        print("bench: --serve and --chaos are mutually exclusive", file=sys.stderr)
        return 2
    if serve_mode:
        try:
            serve = run_serve_bench(
                models=getattr(args, "serve_models", None),
                repeats=getattr(args, "serve_repeats", 5),
                copies=getattr(args, "serve_copies", 3),
                workers=getattr(args, "serve_workers", 2),
                seed=args.seed,
                progress=progress,
            )
        except InvalidRequestError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        report = BenchReport(
            entries=list(previous.entries) if previous is not None else [],
            created_at=time.time(),
            serve=serve,
            chaos=previous.chaos if previous is not None else None,
        )
    elif chaos_mode:
        try:
            chaos_section = run_chaos_bench(
                models=getattr(args, "chaos_models", None),
                copies=getattr(args, "chaos_copies", 2),
                rounds=getattr(args, "chaos_rounds", 2),
                workers=getattr(args, "chaos_workers", 2),
                seed=args.seed,
                deadline_s=getattr(args, "chaos_deadline", 120.0),
                max_retries=getattr(args, "chaos_max_retries", 3),
                progress=progress,
            )
        except InvalidRequestError as exc:
            print(f"bench: {exc}", file=sys.stderr)
            return 2
        report = BenchReport(
            entries=list(previous.entries) if previous is not None else [],
            created_at=time.time(),
            serve=previous.serve if previous is not None else None,
            chaos=chaos_section,
        )
    else:
        spec = getattr(args, "partition_chips", "") or ""
        try:
            partition_chips = tuple(int(c) for c in spec.split(",") if c.strip())
        except ValueError:
            print(f"bench: invalid --partition-chips {spec!r}", file=sys.stderr)
            return 2
        report = run_bench(
            models=args.models,
            duplication_degree=args.duplication,
            channel_width=args.channel_width,
            seed=args.seed,
            partition_chips=partition_chips,
            pnr_jobs=getattr(args, "pnr_jobs", None),
            progress=progress,
        )
        if previous is not None and previous.serve is not None:
            report.serve = previous.serve
        if previous is not None and previous.chaos is not None:
            report.chaos = previous.chaos
    if args.output:
        report.save(args.output)
    if args.json:
        print(report.to_json())
    else:
        if serve_mode:
            print(format_serve_section(report.serve))
        elif chaos_mode:
            print(format_chaos_section(report.chaos))
        else:
            print(format_table(report))
        if args.output:
            print(f"\nreport written to {args.output}")
    if baseline is not None:
        # only gate the section this run measured: carried-over sections
        # would compare the baseline against itself
        if serve_mode:
            current = BenchReport(
                entries=[], created_at=report.created_at, serve=report.serve
            )
        elif chaos_mode:
            current = BenchReport(
                entries=[], created_at=report.created_at, chaos=report.chaos
            )
        else:
            current = BenchReport(
                entries=report.entries, created_at=report.created_at
            )
        regressions = compare_reports(
            current,
            baseline,
            time_threshold=args.threshold,
            quality_tolerance=args.quality_tolerance,
            serve_min_speedup=getattr(args, "serve_min_speedup", 3.0),
            chaos_min_availability=getattr(args, "chaos_min_availability", 1.0),
        )
        if regressions:
            for line in regressions:
                print(f"REGRESSION: {line}", file=sys.stderr)
            return 1
        print("no regressions against the baseline", file=sys.stderr)
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_from_args(build_parser().parse_args(argv))
