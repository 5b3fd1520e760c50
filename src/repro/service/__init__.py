"""The versioned service layer of the FPSA toolchain.

This package is the wire-ready surface every front-end shares — the CLI,
the experiment harnesses, and any future HTTP/queue service:

* :mod:`~repro.service.schemas` — versioned, JSON-round-trippable
  :class:`CompileRequest` / :class:`CompileResponse` dataclasses.
* :mod:`~repro.service.client` — :func:`serve_request` (the single
  execution choke point) and the in-process :class:`FPSAClient`.
* :mod:`~repro.service.jobs` — the async :class:`JobManager`
  (QUEUED/RUNNING/DONE/FAILED) over the batch process pool, with
  coalescing of identical requests, in flight or concluded, bounded
  deterministic-backoff retries, per-job deadlines that are compared
  rather than timed, and admission control.
* :mod:`~repro.service.runtime` — the :class:`ServingRuntime`: persistent
  warm worker pool + coalescing, the high-throughput front door for
  serving traffic.  Its
  :class:`~repro.core.api.WorkerPool` replaces a worker that dies, failing
  only the job it ran, and counts that in :class:`PoolHealth` (re-exported
  here).
* :mod:`~repro.service.store` — the content-addressed :class:`ArtifactStore`
  for durable, comparable run results: the one memory shared across
  processes, from which a repeated bitstream request is answered.

The typed error hierarchy the service maps to structured payloads lives in
:mod:`repro.errors` (re-exported here for convenience).
"""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    "..core.api": ("PoolHealth",),
    "..errors": (
        "RETRIABLE_CODES",
        "CapacityError",
        "DeadlineExceededError",
        "FPSAError",
        "InvalidRequestError",
        "MappingError",
        "OverloadedError",
        "PnRError",
        "SynthesisError",
        "TransientIOError",
        "UnknownModelError",
        "WorkerCrashError",
        "error_from_payload",
    ),
    ".client": ("FPSAClient", "ServedCompile", "serve_request"),
    ".jobs": ("JobInfo", "JobManager", "JobManagerStats", "JobState"),
    ".runtime": ("ServingRuntime",),
    ".schemas": (
        "SCHEMA_VERSION",
        "CompileRequest",
        "CompileResponse",
        "CompileTimings",
        "ErrorPayload",
        "PassTimingEntry",
        "ResultSummary",
    ),
    ".store": ("ArtifactStore", "RunRecord"),
})

__all__ = [
    "SCHEMA_VERSION",
    "CompileRequest",
    "CompileResponse",
    "CompileTimings",
    "PassTimingEntry",
    "ResultSummary",
    "ErrorPayload",
    "FPSAClient",
    "ServedCompile",
    "serve_request",
    "JobManager",
    "JobManagerStats",
    "JobState",
    "JobInfo",
    "ServingRuntime",
    "PoolHealth",
    "ArtifactStore",
    "RunRecord",
    "FPSAError",
    "InvalidRequestError",
    "UnknownModelError",
    "SynthesisError",
    "MappingError",
    "PnRError",
    "CapacityError",
    "WorkerCrashError",
    "TransientIOError",
    "OverloadedError",
    "DeadlineExceededError",
    "RETRIABLE_CODES",
    "error_from_payload",
]
