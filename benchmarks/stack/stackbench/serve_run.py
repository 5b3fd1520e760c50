"""Runner of ``serve_mixed``: closed-loop clients against a
``ServingRuntime``, plus the probes of the core and service layers.

Closed loop, ``W`` clients on ``W`` pool workers: each client sends its
next request only when the previous one has answered.  A request is
``warm`` if a request with the same ``fingerprint()`` had completed before
it was sent, else ``cold``.  Latency is what the client thread sees around
``ServingRuntime.serve``; nothing is read from inside the ``JobManager``.
"""

from __future__ import annotations

import dataclasses
import os
import shutil
import statistics
import tempfile
import threading
import time
from typing import Any

from . import stats
from .calibrate import SpeedClock
from .compile_run import summary_digests
from .spans import SpanRecorder, dump_spans
from .workloads import enough, serve_catalogue, serve_round, worker_count

#: zoo models outside the catalogue, compiled uncached: they start the
#: workers without putting a catalogue artifact in any store.
_WARMUP_MODEL = "VGG11"


def _request(model: str, duplication: int):
    from repro.service import CompileRequest

    return CompileRequest(model=model, duplication_degree=duplication, dedup=True)


@dataclasses.dataclass
class Sample:
    """One request as its client saw it.  ``response`` (the exception,
    when ``serve`` raised instead of answering) is dropped once the round
    is settled: holding 400 responses per round alive slowed later rounds."""

    key: tuple[str, int]
    warm: bool
    #: client-observed latency; reference seconds once the round is over.
    seconds: float
    response: Any = None
    #: ``response.timings.total_seconds``: the compile as the worker saw
    #: it, in reference seconds.
    reported: float = 0.0


_COUNTERS = (
    "cache_hits",
    "cache_misses",
    "shared_cache_hits",
    "shared_cache_misses",
    "dedup_hits",
    "dedup_misses",
    "write_errors",
)


class _Probe:
    """Repeated calls of a layer's public functions, each under a span."""

    def __init__(self, rec: SpanRecorder) -> None:
        self.rec = rec
        self.seconds: dict[str, list[float]] = {}

    def timed(self, name: str, call, *args):
        with self.rec.span(name) as span:
            value = call(*args)
        self.seconds.setdefault(name, []).append(span.seconds)
        return value

    def median(self, name: str, scale: float) -> float:
        return statistics.median(self.seconds[name]) * scale


class ServeBench:
    """``serve_mixed``, set up: :mod:`repro` imported, requests built."""

    def __init__(self, seed: int, workdir: str):
        import repro.service  # noqa: F401 - the import is part of set-up

        self.seed = seed
        self.workdir = workdir
        self.workers = worker_count()
        #: set once set-up is over: the clock is the benchmark's own and no
        #: part of the stack's set-up time.
        self.clock: SpeedClock | None = None
        self.requests = {key: _request(*key) for key in serve_catalogue()}
        self.fingerprints = {key: r.fingerprint() for key, r in self.requests.items()}
        self.reference: dict[tuple[str, int], str] = {}

    # ----------------------------------------------------------- runtime

    def start_runtime(self, root: str):
        """A fresh runtime on empty stores, every worker started."""
        from repro.service import ArtifactStore, CompileRequest, ServingRuntime

        runtime = ServingRuntime(
            max_workers=self.workers,
            shared_cache_dir=os.path.join(root, "shared"),
            store=ArtifactStore(os.path.join(root, "store")),
            dedup_store_dir=os.path.join(root, "dedup"),
        )
        warmup = [
            CompileRequest(model=_WARMUP_MODEL, duplication_degree=i + 1, use_cache=False)
            for i in range(self.workers)
        ]
        for response in runtime.serve_batch(warmup):
            response.raise_for_status()
        return runtime

    def closed_loop(
        self, runtime, order: list[tuple[str, int]], rec: SpanRecorder | None, parent=None
    ) -> tuple[float, list[Sample]]:
        """``W`` client threads drain ``order``; returns wall and samples."""
        pending = iter(order)
        completed: set[str] = set()
        lock = threading.Lock()
        served: list[Sample] = []

        def serve(key):
            try:
                return runtime.serve(self.requests[key])
            except Exception as exc:  # noqa: BLE001 - a refused request is a failed op
                return exc

        def client() -> None:
            while True:
                with lock:
                    key = next(pending, None)
                    if key is None:
                        return
                    warm = self.fingerprints[key] in completed
                start = time.perf_counter()
                if rec is None:
                    response = serve(key)
                else:
                    with rec.span("service.serve", parent=parent, op=key, warm=warm):
                        response = serve(key)
                seconds = time.perf_counter() - start
                with lock:
                    completed.add(self.fingerprints[key])
                    served.append(Sample(key, warm, seconds, response))

        threads = [threading.Thread(target=client) for _ in range(self.workers)]
        start = time.perf_counter()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return time.perf_counter() - start, served

    def run_round(self, index: int, rec: SpanRecorder | None = None) -> dict[str, Any]:
        """One round on a fresh runtime.  A traced round ends with the
        burst: the same requests submitted at once on the now-warm runtime."""
        root = tempfile.mkdtemp(prefix=f"round{index}-", dir=self.workdir)
        order = serve_round(self.seed, index)
        runtime = self.start_runtime(root)
        try:
            # the main thread only waits for the clients, so the clock's
            # samples run beside them, on whichever core the parent gets
            with self.clock:
                begin = time.perf_counter()
                if rec is None:
                    raw_wall, served = self.closed_loop(runtime, order, None)
                else:
                    with rec.span("round", index=index) as span:
                        raw_wall, served = self.closed_loop(runtime, order, rec, span.id)
                end = time.perf_counter()
                burst = None
                if rec is not None:
                    before = runtime.stats()["coalesced"]
                    with rec.span("service.burst") as span:
                        responses = runtime.serve_batch([self.requests[k] for k in order])
                    burst = {
                        "seconds": span.seconds * self.clock.speed(span.start, span.end),
                        "coalesce_ratio": (runtime.stats()["coalesced"] - before) / len(order),
                        "ok": all(r.ok for r in responses),
                    }
            counters = runtime.stats()
        finally:
            runtime.close()
            # the runtime exports its dedup store for its workers and leaves it set
            os.environ.pop("REPRO_DEDUP_STORE", None)
            shutil.rmtree(root, ignore_errors=True)
        speed = self.clock.speed(begin, end)
        for sample in served:
            sample.seconds *= speed
        if burst is not None:
            burst["rps"] = len(order) / burst.pop("seconds")
        return {
            "wall": raw_wall * speed,
            "raw_wall": raw_wall,
            "served": served,
            "burst": burst,
            "counters": counters,
            **self.settle(index, served, speed),
        }

    def settle(self, index: int, served: list[Sample], speed: float) -> dict[str, Any]:
        """Check every response of a round against the direct compile of
        its request, keep what the metrics need and let the responses go."""
        failures: list[str] = []
        kept: dict[tuple[str, int], Any] = {}
        cache = dict.fromkeys(_COUNTERS, 0)
        for sample in served:
            response, sample.response = sample.response, None
            if isinstance(response, Exception):
                failures.append(f"round {index} {sample.key}: raised {response!r}")
            elif not response.ok:
                failures.append(f"round {index} {sample.key}: {response.error.code}")
            elif summary_digests(response.summary.to_dict())[0] != self.reference[sample.key]:
                failures.append(
                    f"round {index} {sample.key}: summary differs from a direct compile"
                )
            else:
                kept[sample.key] = response
                sample.reported = response.timings.total_seconds * speed
                for counter in _COUNTERS:
                    cache[counter] += getattr(response.timings, counter)
        return {"failures": failures, "responses": kept, "cache": cache}

    # ------------------------------------------------------- correctness

    def compile_reference(self) -> dict[tuple[str, int], str]:
        """The summary each catalogue request must come back with: a
        direct, in-process, uncached, dedup-free compile of it."""
        from repro.service import serve_request

        for key, request in self.requests.items():
            direct = dataclasses.replace(request, use_cache=False, dedup=False)
            response = serve_request(direct, cache=False).response
            response.raise_for_status()
            self.reference[key] = summary_digests(response.summary.to_dict())[0]
        return self.reference

    # ------------------------------------------------------- layer probes

    def probe_core(self, rec: SpanRecorder) -> dict[str, float]:
        """Public get/put of the stage-cache tiers on captured artifacts,
        and the worker pool's spawn and round-trip cost."""
        from repro.core.api import WorkerPool
        from repro.core.cache import StageCache
        from repro.core.compiler import FPSACompiler
        from repro.core.shared_cache import SharedStageCache
        from repro.models.zoo import build_model

        result = FPSACompiler(cache=False).compile(
            build_model("GoogLeNet"), duplication_degree=8, use_cache=False
        )
        artifacts = {"coreops": result.coreops, "mapping": result.mapping}
        n = 50
        memory = StageCache(max_entries=2 * n)
        shared_dir = tempfile.mkdtemp(prefix="probe-shared-", dir=self.workdir)
        shared = SharedStageCache(shared_dir)
        keys = [f"{i:064x}" for i in range(n)]
        probe = _Probe(rec)
        for key in keys:
            probe.timed("core.stage_cache.put", memory.put, key, artifacts)
            probe.timed("core.stage_cache.get", memory.get, key)
            probe.timed("core.shared_cache.put", shared.put, key, artifacts)
            probe.timed("core.shared_cache.get", shared.get, key)
        entry_bytes = shared.total_bytes() / n
        shutil.rmtree(shared_dir, ignore_errors=True)

        with rec.span("core.pool.spawn") as spawn:
            pool = WorkerPool(max_workers=self.workers, shared_cache_dir=False)
            futures = [pool.submit(os.getpid) for _ in range(self.workers)]
            for future in futures:
                future.result()
        try:
            for _ in range(200):
                probe.timed("core.pool.roundtrip", lambda: pool.submit(os.getpid).result())
        finally:
            pool.shutdown()
        return {
            "core.stage_cache_get_us": probe.median("core.stage_cache.get", 1e6),
            "core.stage_cache_put_us": probe.median("core.stage_cache.put", 1e6),
            "core.shared_cache_get_ms": probe.median("core.shared_cache.get", 1e3),
            "core.shared_cache_put_ms": probe.median("core.shared_cache.put", 1e3),
            "core.shared_cache_entry_bytes": entry_bytes,
            "core.pool_spawn_s": spawn.seconds,
            "core.pool_roundtrip_ms": probe.median("core.pool.roundtrip", 1e3),
        }

    def probe_service(self, rec: SpanRecorder, responses: dict) -> dict[str, float]:
        """Codecs, fingerprint, in-process warm serve and the artifact
        store, each on the catalogue's own requests and responses."""
        from repro.core.cache import StageCache
        from repro.service import ArtifactStore, CompileRequest, CompileResponse, serve_request

        probe = _Probe(rec)
        cache = StageCache()
        sizes = []
        for key, request in self.requests.items():
            probe.timed(
                "service.request_codec", lambda r=request: CompileRequest.from_json(r.to_json())
            )
            probe.timed("service.fingerprint", request.fingerprint)
            response = responses[key]
            probe.timed(
                "service.response_codec",
                lambda r=response: CompileResponse.from_dict(r.to_dict()),
            )
            sizes.append(len(response.to_json()))
            serve_request(request, cache=cache)
            probe.timed("service.serve_request_warm", serve_request, request, None, cache)

        store_dir = tempfile.mkdtemp(prefix="probe-store-", dir=self.workdir)
        store = ArtifactStore(store_dir)
        sample = next(iter(responses.values()))
        for i in range(520):
            tagged = dataclasses.replace(
                sample, request=dataclasses.replace(sample.request, tags={"i": str(i)})
            )
            name = "service.store_save" if i < 20 else "service.store_save_at500"
            if i < 20 or i >= 500:
                probe.timed(name, store.save, tagged)
            else:
                store.save(tagged)
        shutil.rmtree(store_dir, ignore_errors=True)
        return {
            "service.request_codec_us": probe.median("service.request_codec", 1e6),
            "service.fingerprint_us": probe.median("service.fingerprint", 1e6),
            "service.response_codec_ms": probe.median("service.response_codec", 1e3),
            "service.response_bytes": statistics.median(sizes),
            "service.serve_request_warm_ms": probe.median("service.serve_request_warm", 1e3),
            "service.store_save_ms": probe.median("service.store_save", 1e3),
            "service.store_save_ms_at500": probe.median("service.store_save_at500", 1e3),
        }

    def probe_graphs(self) -> dict[str, float]:
        """Workers rebuild and re-hash the model graph on every request."""
        from repro.core.cache import graph_fingerprint
        from repro.models.zoo import build_model

        build = fingerprint = 0.0
        nodes = 0
        for model in sorted({model for model, _ in self.requests}):
            start = time.perf_counter()
            graph = build_model(model)
            middle = time.perf_counter()
            graph_fingerprint(graph)
            fingerprint += time.perf_counter() - middle
            build += middle - start
            nodes += len(graph.nodes())
        return {
            "models.build_s": build,
            "graph.nodes": nodes,
            "graph.fingerprint_ms": fingerprint * 1e3,
        }


def _ratio(hits: int, misses: int) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


def run_serve_workload(
    seed: int,
    seconds: float,
    trace: bool,
    workdir: str,
    expected: dict | None = None,
    min_rounds: int = 3,
    spans_path: str | None = None,
) -> dict[str, Any]:
    """Run ``serve_mixed`` and return its result record.

    Rounds repeat like the compile passes do.  Traced: each untraced round
    is followed by a traced one (with the burst) on the same request
    order, and the probes run at the end.
    """
    bench = ServeBench(seed, workdir)
    rec = SpanRecorder() if trace else None

    # ---- correctness reference, outside set-up and outside the rounds
    failures: list[str] = []
    pinned = (expected or {}).get("serve_mixed", {})
    for (model, dup), value in bench.compile_reference().items():
        if pinned.get(f"{model}/d{dup}", value) != value:
            failures.append(f"{model}/d{dup}: direct compile differs from expected_seed0.json")

    rounds = []
    traced_rounds = []
    bench.clock = SpeedClock()
    begin = time.perf_counter()
    while True:
        rounds.append(bench.run_round(len(rounds)))
        if trace:  # the same request order again, traced
            traced_rounds.append(bench.run_round(len(rounds) - 1, rec))
        minimum = 1 if trace else min_rounds
        if enough(len(rounds), time.perf_counter() - begin, seconds, minimum):
            break
    measured = rounds + traced_rounds
    responses: dict[tuple[str, int], Any] = {}
    for round_ in measured:
        failures += round_["failures"]
        responses.update(round_["responses"])
        if round_["burst"] is not None and not round_["burst"]["ok"]:
            failures.append("a burst response was not ok")
    attempted = sum(len(round_["served"]) for round_ in measured)
    failed = len(failures)

    # ---- end-to-end: from the untraced rounds only
    samples = [s for round_ in rounds for s in round_["served"]]
    warm = [s.seconds for s in samples if s.warm]
    cold = [s.seconds for s in samples if not s.warm]
    # the cold latency of a point has one sample a round, which is too few
    # to gate on: a point's time is the median over all its requests
    by_point: dict[tuple[str, int], list[float]] = {}
    for sample in samples:
        by_point.setdefault(sample.key, []).append(sample.seconds)
    point_medians = {key: statistics.median(v) for key, v in by_point.items()}
    walls = [round_["wall"] for round_ in rounds]
    wall = stats.summarize(walls)
    n_requests = len(rounds[0]["served"])
    metrics: dict[str, dict[str, Any]] = {
        "pass_wall_s": {
            "value": wall["median"],
            **wall,
            "raw": statistics.median(round_["raw_wall"] for round_ in rounds),
        },
        "op_gmean_ms": {
            "value": statistics.geometric_mean(list(point_medians.values())) * 1e3,
            "n": len(point_medians),
        },
        "qor_throughput_gmean": {
            "value": statistics.geometric_mean(
                [r.summary.performance["throughput_samples_per_s"] for r in responses.values()]
            ),
            "n": len(responses),
        },
        "qor_density_gmean": {
            "value": statistics.geometric_mean(
                [r.summary.performance["tops_per_mm2"] * 1e12 for r in responses.values()]
            ),
            "n": len(responses),
        },
        "fail_share": {"value": failed / attempted, "n": attempted},
        "serve_ok_share": {"value": 1.0 - failed / attempted, "n": attempted},
        "serve_rps": {"value": n_requests / wall["median"], "n": len(walls)},
        "serve_warm_p50_ms": {"value": statistics.median(warm) * 1e3, "n": len(warm)},
        "serve_warm_p95_ms": {"value": stats.percentile(warm, 95) * 1e3, "n": len(warm)},
        "serve_cold_p50_ms": {"value": statistics.median(cold) * 1e3, "n": len(cold)},
    }

    # ---- per layer
    if trace:
        traced_round = traced_rounds[0]  # counts repeat; one round's are reported
        traced_warm = [s for s in traced_round["served"] if s.warm and s.reported]
        cache = traced_round["cache"]
        counters = traced_round["counters"]
        all_warm = [s.seconds for round_ in measured for s in round_["served"] if s.warm]
        layers = {
            "core.stage_hit_ratio": _ratio(cache["cache_hits"], cache["cache_misses"]),
            "core.shared_hit_ratio": _ratio(
                cache["shared_cache_hits"], cache["shared_cache_misses"]
            ),
            "core.dedup_hit_ratio": _ratio(cache["dedup_hits"], cache["dedup_misses"]),
            "core.write_errors": cache["write_errors"],
            "service.overhead_ms": statistics.median(
                s.seconds - s.reported for s in traced_warm
            )
            * 1e3,
            "service.compile_reported_ms": statistics.median(
                s.reported for s in traced_warm
            )
            * 1e3,
            "service.warm_p99_ms": stats.percentile(all_warm, 99) * 1e3,
            "service.burst_rps": traced_round["burst"]["rps"],
            "service.coalesce_ratio": traced_round["burst"]["coalesce_ratio"],
            "trace.overhead_share": statistics.median(r["wall"] for r in traced_rounds)
            / statistics.median(walls)
            - 1.0,
        }
        for counter in ("retried", "displaced", "rejected", "deadline_expired"):
            layers[f"service.{counter}"] = counters[counter]
        layers.update(bench.probe_core(rec))
        layers.update(bench.probe_service(rec, responses))
        layers.update(bench.probe_graphs())
        for name, value in layers.items():
            metrics[name] = {"value": value}
        metrics["service.warm_p99_ms"]["n"] = len(all_warm)
        if spans_path:
            dump_spans(spans_path, [rec])

    return {
        "workload": "serve_mixed",
        "seed": seed,
        "trace": trace,
        "attempted": attempted,
        "failed": failed,
        "failures": failures[:20],
        "passes": len(rounds),
        "speed_factor": bench.clock.median_factor(),
        "metrics": metrics,
        "points": {
            f"{model}/d{dup}": {"median_ms": seconds * 1e3, "n": len(by_point[(model, dup)])}
            for (model, dup), seconds in point_medians.items()
        },
    }
