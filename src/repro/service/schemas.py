"""Versioned, JSON-round-trippable request/response schemas.

These dataclasses are the wire surface of the compilation service: every
field is a plain JSON type (or a nested schema of plain JSON types), so a
:class:`CompileRequest` / :class:`CompileResponse` survives
``to_json``/``from_json`` losslessly and can cross process, queue or HTTP
boundaries unchanged; the codec is :class:`repro.wire.WireRecord`'s.

Every schema carries a ``schema_version``; deserialization rejects versions
it does not understand with :class:`~repro.errors.InvalidRequestError`, so
a newer client cannot silently feed a misinterpreted payload to an older
server (or vice versa).
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Mapping

from ..core.pipeline import (
    BOOLEAN,
    COUNT,
    PUBLIC_KNOBS,
    check_knobs,
    integer,
    is_number,
    knob,
    or_none,
)
from ..errors import (
    RETRIABLE_CODES,
    FPSAError,
    InvalidRequestError,
    error_from_payload,
)
from ..wire import WireRecord

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..arch.params import FPSAConfig
    from ..core.pipeline import PassTiming
    from ..core.result import DeploymentResult

__all__ = [
    "SCHEMA_VERSION",
    "CompileRequest",
    "CompileResponse",
    "CompileTimings",
    "PassTimingEntry",
    "ResultSummary",
    "ErrorPayload",
]

#: current wire-schema version; bump on any incompatible field change.
SCHEMA_VERSION = 1


def _check_schema_version(version: Any, schema: str) -> None:
    if version != SCHEMA_VERSION:
        raise InvalidRequestError(
            f"unsupported {schema} schema_version {version!r}; "
            f"this build understands version {SCHEMA_VERSION}",
            details={"schema": schema, "got": version, "supported": SCHEMA_VERSION},
        )


def _strings(values: Any) -> bool:
    return all(isinstance(v, str) for v in values)


# checks of the request-only fields (see ``repro.core.pipeline.knob``)
_PASS_NAMES = or_none(
    ("a list of pass names", lambda v: isinstance(v, (list, tuple)) and _strings(v))
)
_SECONDS = or_none(("a number > 0", lambda v: is_number(v) and v > 0))
_OVERRIDES = or_none(
    ("an object with string keys", lambda v: isinstance(v, dict) and _strings(v))
)
_TAGS = (
    "an object of string values",
    lambda v: isinstance(v, dict) and _strings(v) and _strings(v.values()),
)


@dataclass(frozen=True)
class CompileRequest(WireRecord):
    """One compilation of one model-zoo entry, as wire data.

    The knob fields mirror the public fields of
    :class:`~repro.core.pipeline.CompileOptions` — the one table that
    documents them, checks their values and says which enter
    :meth:`fingerprint`; a test pins that the mirror equals the table.
    The request-only fields are declared the same way, here.
    """

    model: str
    duplication_degree: int = 1
    pe_budget: int | None = None
    #: inert: checked and fingerprinted, read by nothing; kept until the
    #: wire-schema bump, because stored run ids hash it.
    detailed_schedule: bool = knob(BOOLEAN, "semantic", default=False)
    run_pnr: bool = False
    emit_bitstream: bool = False
    #: inert like ``detailed_schedule``; kept until the wire-schema bump.
    max_schedule_reuse: int | None = knob(COUNT, "semantic", default=None)
    pnr_channel_width: int | None = None
    pnr_seed: int = 0
    pnr_jobs: int | None = None
    seed: int | None = None
    num_chips: int | str | None = None
    shard_jobs: int | None = None
    #: explicit pass-name list (see :meth:`FPSACompiler.compile`).
    passes: tuple[str, ...] | None = knob(
        _PASS_NAMES, "semantic", flag="--passes", default=None,
        help="comma-separated pass list to run instead of the default pipeline "
        "(e.g. 'synthesis,mapping')",
    )
    #: ``False`` bypasses the stage cache.  Changes no artifact, but stays
    #: fingerprinted: stored run ids predate the role split.
    use_cache: bool = knob(BOOLEAN, "execution", fingerprinted=True, default=True)
    verify: bool = False
    dedup: bool = False
    #: serving deadline in seconds: the job layer publishes a typed
    #: ``deadline_exceeded`` error if no result lands in time.
    deadline_s: float | None = knob(
        _SECONDS, "serving", flag="--deadline", default=None,
        help="deadline in seconds; an expired job fails with deadline_exceeded",
    )
    #: maximum transparent retries on *retriable* faults (worker death,
    #: transient IO); ``None`` uses the job manager's default.  Retried
    #: jobs are bit-identical to first-try jobs.
    max_retries: int | None = knob(
        or_none(integer(0)), "serving", flag="--max-retries", default=None,
        help="retry budget for retriable faults (default: the job manager's)",
    )
    #: keyword overrides for
    #: :meth:`repro.synthesizer.synthesizer.SynthesisOptions.from_pe`
    #: (e.g. ``{"lower_pooling": false}``).
    synthesis_options: dict[str, Any] | None = knob(_OVERRIDES, "semantic", default=None)
    #: free-form caller metadata carried through responses and the
    #: artifact store untouched.
    tags: dict[str, str] = knob(_TAGS, "serving", default_factory=dict)
    schema_version: int = SCHEMA_VERSION

    #: a fault plan is the environment's (``REPRO_FAULT_PLAN``), never a
    #: request's; stored requests still carry the key, and run ids hash it.
    #: No retired key enters :meth:`fingerprint`.
    retired = {"fault_plan": None}

    def __post_init__(self):
        _check_schema_version(self.schema_version, "CompileRequest")
        if not isinstance(self.model, str) or not self.model:
            raise InvalidRequestError(
                f"model must be a non-empty model-zoo name, got {self.model!r}",
                details={"model": repr(self.model)},
            )
        check_knobs(self, REQUEST_KNOBS)
        if self.passes is not None:
            object.__setattr__(self, "passes", tuple(self.passes))

    def fingerprint(self) -> str:
        """Content-addressed identity of this request.

        Every field its declaration marks as not fingerprinted — the
        execution knobs (any value produces the bit-identical artifact) and
        the serving fields (they shape *whether and when* a result is
        served, never its bits) — is excluded, so coalescing and the
        artifact store treat requests differing only in those fields as
        the same compilation.  Computed once per (frozen) request object.
        """
        memo = getattr(self, "_fingerprint", None)
        if memo is None:
            data = self.to_dict()
            for name in _UNFINGERPRINTED:
                del data[name]
            canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
            memo = hashlib.sha256(canonical.encode("utf-8")).hexdigest()
            object.__setattr__(self, "_fingerprint", memo)
        return memo

    def compile_kwargs(self) -> dict[str, Any]:
        """The keyword arguments for :meth:`FPSACompiler.compile`."""
        return {name: getattr(self, name) for name in _COMPILE_KWARGS}


#: every checked request field: the knob table plus the request-only
#: fields declared on :class:`CompileRequest` itself.
REQUEST_KNOBS = PUBLIC_KNOBS + tuple(
    f for f in dataclasses.fields(CompileRequest) if "check" in f.metadata
)
_UNFINGERPRINTED = tuple(
    f.name for f in REQUEST_KNOBS if not f.metadata["fingerprinted"]
) + tuple(CompileRequest.retired)
#: what ``compile()`` takes: every public knob plus its own two keywords.
_COMPILE_KWARGS = tuple(f.name for f in PUBLIC_KNOBS) + ("passes", "use_cache")


@dataclass(frozen=True)
class PassTimingEntry(WireRecord):
    """Wire form of one :class:`~repro.core.pipeline.PassTiming`."""

    name: str
    seconds: float
    cached: bool
    provides: tuple[str, ...]

    volatile = ("seconds", "cached")


@dataclass(frozen=True)
class CompileTimings(WireRecord):
    """Per-pass wall-clock timings plus the stage-cache counters.

    ``cache_hits``/``cache_misses`` count passes served from (or missed
    by) the stage cache; ``evictions`` counts LRU entries this compile
    pushed out.
    """

    passes: tuple[PassTimingEntry, ...]
    total_seconds: float
    cache_hits: int
    cache_misses: int
    evictions: int = 0
    #: always 0 from a new compile, as are ``dedup_*`` and ``write_errors``:
    #: older runs carry them and benchmark readers still read them, so they
    #: stay until the next wire-schema version.
    shared_cache_hits: int = 0
    shared_cache_misses: int = 0
    dedup_hits: int = 0
    dedup_misses: int = 0
    write_errors: int = 0

    #: how the compile ran: its seconds and every cache counter
    volatile = ("total_seconds",
                "cache_hits", "cache_misses", "evictions",
                "shared_cache_hits", "shared_cache_misses", "write_errors")

    @classmethod
    def from_pass_timings(
        cls,
        timings: "list[PassTiming] | None",
        cache_stats: Any = None,
    ) -> "CompileTimings | None":
        """Build from live pass timings, plus the compile's
        :class:`~repro.core.cache.CacheStats` tally when available."""
        if timings is None:
            return None
        entries = tuple(
            PassTimingEntry(
                name=t.name, seconds=t.seconds, cached=t.cached,
                provides=tuple(t.provides),
            )
            for t in timings
        )
        return cls(
            passes=entries,
            total_seconds=sum(t.seconds for t in timings),
            cache_hits=sum(1 for t in timings if t.cached),
            cache_misses=sum(1 for t in timings if t.missed),
            evictions=getattr(cache_stats, "evictions", 0),
        )

    def seconds_by_stage(self) -> dict[str, float]:
        """Wall-clock seconds keyed by pass name (wire-safe flat mapping)."""
        return {p.name: p.seconds for p in self.passes}


def strip_seconds(summary: Mapping[str, Any] | None) -> dict[str, Any] | None:
    """A ``ResultSummary`` dict less its wall-clock ``*_seconds`` keys (P&R's)."""
    if summary is None:
        return None
    return {
        section: {k: v for k, v in value.items() if not k.endswith("_seconds")}
        if isinstance(value, dict) else value
        for section, value in summary.items()
    }


@dataclass(frozen=True)
class ResultSummary(WireRecord):
    """Serializable distillation of a :class:`DeploymentResult`.

    Sections whose artifacts a (partial) compile did not produce are
    ``None``; the present ones are flat JSON objects so the summary
    round-trips losslessly.
    """

    model: str
    duplication_degree: int | None = None
    blocks: dict[str, int] | None = None
    performance: dict[str, float] | None = None
    bounds: dict[str, float] | None = None
    energy: dict[str, float] | None = None
    pnr: dict[str, float] | None = None
    #: load-only: stored responses may carry the cycle simulator's section;
    #: always ``None`` from a new compile, kept until the wire-schema bump.
    pipeline: dict[str, float] | None = None
    bitstream: dict[str, Any] | None = None
    #: multi-chip compiles: shard roster, cut size/traffic and per-chip
    #: utilization (see ``PartitionResult.summary_dict``).
    partition: dict[str, Any] | None = None

    def stable_dict(self, data: dict[str, Any] | None = None) -> dict[str, Any]:
        """A summary's volatile part is its sections' seconds: :func:`strip_seconds`."""
        return strip_seconds(self.to_dict() if data is None else data)

    @classmethod
    def from_result(
        cls, result: "DeploymentResult", config: "FPSAConfig | None" = None
    ) -> "ResultSummary":
        """Distill the wire-relevant numbers out of a live compile result."""
        duplication = blocks = performance = bounds = energy = None
        pnr = bitstream = partition = None
        if result.mapping is not None:
            duplication = result.mapping.duplication_degree
            blocks = result.mapping.block_counts()
        if result.partition is not None:
            plan = result.partition
            duplication = duplication or plan.duplication_degree
            shard_blocks = None
            if result.shard_results is not None:
                measured = [r.blocks() for r in result.shard_results]
                if all(b is not None for b in measured):
                    shard_blocks = measured
                    # no top-level netlist on a multi-chip compile: report
                    # the block totals summed over the shards instead
                    if blocks is None:
                        blocks = {
                            key: sum(b[key] for b in measured)
                            for key in ("n_pe", "n_smb", "n_clb")
                        }
            partition = plan.summary_dict(shard_blocks)
        if result.performance is not None:
            report = result.performance
            performance = {
                "area_mm2": report.area_mm2,
                "throughput_samples_per_s": report.throughput_samples_per_s,
                "latency_us": report.latency_us,
                "ops_per_sample": report.ops_per_sample,
                "real_tops": report.real_ops / 1e12,
                "tops_per_mm2": report.computational_density_ops_per_mm2 / 1e12,
                "utilization": report.utilization,
            }
        if result.bounds is not None:
            bounds = {
                "peak_density_tops_per_mm2": result.bounds.peak_density / 1e12,
                "spatial_bound_tops_per_mm2": result.bounds.spatial_bound / 1e12,
                "temporal_bound_tops_per_mm2": result.bounds.temporal_bound / 1e12,
                "spatial_utilization": result.bounds.spatial_utilization,
                "temporal_utilization": result.bounds.temporal_utilization,
            }
        if result.coreops is not None and result.mapping is not None:
            report = result.energy(config)
            energy = {
                "pe_pj": report.pe_pj,
                "smb_pj": report.smb_pj,
                "clb_pj": report.clb_pj,
                "routing_pj": report.routing_pj,
                "total_pj": report.total_pj,
            }
            if result.performance is not None:
                # ops/pJ == TOPS/W, from the report already in hand
                energy["tops_per_w"] = (
                    result.performance.ops_per_sample / report.total_pj
                    if report.total_pj > 0
                    else 0.0
                )
        if result.pnr is not None:
            pnr = {
                "channel_width": float(result.pnr.channel_width),
                "total_wirelength": float(result.pnr.total_wirelength),
                "critical_path_ns": result.pnr.critical_path_ns,
                "mean_route_segments": result.pnr.mean_route_segments,
                # router observability: negotiation iterations, total A*
                # expansions, the rip-up/reroute volume and the number of
                # independent congestion domains of the final iteration
                "router_iterations": float(result.pnr.routing.iterations),
                "router_nodes_expanded": float(result.pnr.routing.nodes_expanded),
                "router_rerouted_nets": float(result.pnr.routing.rerouted_nets),
                "router_domains": float(result.pnr.routing.domains),
            }
            stats = result.pnr.placement_stats
            if stats is not None:
                # annealing observability
                pnr["place_rounds"] = float(stats.rounds)
                pnr["place_moves_proposed"] = float(stats.moves_proposed)
                pnr["place_moves_accepted"] = float(stats.moves_accepted)
            for stage, seconds in result.pnr.stage_seconds.items():
                pnr[f"{stage}_seconds"] = seconds
        if result.bitstream is not None:
            bitstream = {"emitted": True, "summary": result.bitstream.summary()}
        return cls(
            model=result.model,
            duplication_degree=duplication,
            blocks=blocks,
            performance=performance,
            bounds=bounds,
            energy=energy,
            pnr=pnr,
            bitstream=bitstream,
            partition=partition,
        )


@dataclass(frozen=True)
class ErrorPayload(WireRecord):
    """Wire form of one :class:`~repro.errors.FPSAError`."""

    code: str
    type: str = "FPSAError"
    message: str = ""
    details: dict[str, Any] = field(default_factory=dict)

    @classmethod
    def from_exception(cls, exc: BaseException) -> "ErrorPayload":
        """Map any exception to a payload; non-FPSA errors become ``internal``."""
        if isinstance(exc, FPSAError):
            return cls(**exc.payload())
        return cls(
            code="internal",
            type=type(exc).__name__,
            message=str(exc) or type(exc).__name__,
        )

    @property
    def retriable(self) -> bool:
        """Whether the serving runtime may transparently retry this error."""
        return self.code in RETRIABLE_CODES

    def to_exception(self) -> FPSAError:
        """Rehydrate the typed exception this payload describes."""
        return error_from_payload(self.to_dict())


@dataclass(frozen=True)
class CompileResponse(WireRecord):
    """The service's answer to one :class:`CompileRequest`.

    ``status`` is ``"ok"`` (with a ``summary``) or ``"error"`` (with a
    structured ``error`` payload).  ``timings`` is present whenever the
    pipeline ran far enough to record pass timings, and carries the
    stage-cache hit/miss counters of the compile.
    """

    request: CompileRequest
    status: str
    summary: ResultSummary | None = None
    timings: CompileTimings | None = None
    error: ErrorPayload | None = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        _check_schema_version(self.schema_version, "CompileResponse")
        if self.status not in ("ok", "error"):
            raise InvalidRequestError(
                f"status must be 'ok' or 'error', got {self.status!r}"
            )
        if self.status == "ok" and self.summary is None:
            raise InvalidRequestError("an 'ok' response requires a summary")
        if self.status == "error" and self.error is None:
            raise InvalidRequestError("an 'error' response requires an error payload")

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def raise_for_status(self) -> "CompileResponse":
        """Raise the typed exception of an error response; return self if ok."""
        if self.error is not None:
            raise self.error.to_exception()
        return self
