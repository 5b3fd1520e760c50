"""Async job management over the compilation service.

The :class:`JobManager` is the batch front door: it fans compile requests
out over a process pool with service semantics.  ``submit`` returns
immediately with a job id, jobs move through the QUEUED -> RUNNING ->
DONE/FAILED lifecycle, and ``result`` hands back the wire-level
:class:`~repro.service.schemas.CompileResponse` (failures included, as
structured error payloads — a FAILED job never raises unless asked to).

Requests and responses cross the worker boundary as plain dicts, so the
pool exercises exactly the wire schemas an out-of-process front-end would.

Serving-runtime behaviours that live here:

* **Warm-pool reuse** — pass a persistent
  :class:`~repro.core.api.WorkerPool` via ``pool=`` and the manager runs
  jobs on it without owning it: consecutive managers (or batches) land on
  the same warm worker processes instead of paying a pool spawn each time.
* **Request coalescing** — identical requests (same canonical
  :meth:`CompileRequest.fingerprint`, which excludes ``tags``) share one
  compile.  While it is in flight, followers attach to the primary job
  and the response is fanned out to each under its own request (the
  very response object where the requests are equal, else a copy);
  once it has concluded ``ok``, ``submit`` answers a repeat on the
  caller's thread from the same fingerprint map (the last
  :data:`REMEMBERED_JOBS`, LRU).  Disable per manager with
  ``coalesce=False``; a ``use_cache=False`` request is never remembered.
* **What a repeat costs** — a repeat's job is created already published,
  in one hold of the manager lock: its response is set before the job is
  visible, and it shares one already-set event instead of owning one that
  nobody waits on.  Outside the lock, the store's re-save of a run it
  indexed is one ``stat``.  The manager holds every in-flight job and the
  last :data:`REMEMBERED_JOBS` finished ones; an older id reads as unknown.
* **Self-healing pool and bounded retries** — a dead worker poisons a
  ``ProcessPoolExecutor`` (every in-flight and future job fails with
  ``BrokenProcessPool``); the manager asks its
  :class:`~repro.core.api.WorkerPool` to :meth:`~repro.core.api.WorkerPool.heal`,
  which rebuilds the executor once per breakage, and resubmits displaced
  jobs at once.  The worker then sleeps an exponential backoff with full
  jitter *derived deterministically from the request seed* before it
  compiles (:func:`backoff_delay`).  Only *retriable* faults (worker
  death, transient IO, overload — see :data:`repro.errors.RETRIABLE_CODES`)
  are retried, at most ``CompileRequest.max_retries`` times; typed compile
  errors never are.  Retried jobs produce responses bit-identical to
  first-try jobs — determinism makes retries safe.
* **Deadlines and admission control** — ``CompileRequest.deadline_s``
  bounds each job's wall clock.  A deadline is a time that gets compared,
  not a thread: a response that lands at or after it, or a waiter
  (``result``, ``wait_all``, ``shutdown``) or observer (``status``,
  ``jobs``) that outlives it, publishes the typed ``deadline_exceeded``
  error instead.  ``max_queue_depth`` caps the number of uncoalesced
  in-flight jobs, rejecting the excess with a retriable
  :class:`~repro.errors.OverloadedError` instead of queueing unboundedly.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
import threading
import time
from collections import deque
from concurrent.futures import (
    BrokenExecutor,
    CancelledError,
    Executor,
    Future,
)
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING, Any, Iterable

from ..arch.params import FPSAConfig
from ..core.api import WorkerPool
from ..core.cache import StageCache
from ..errors import (
    RETRIABLE_CODES,
    DeadlineExceededError,
    FPSAError,
    InvalidRequestError,
    OverloadedError,
    TransientIOError,
    WorkerCrashError,
)
from ..seeding import derive_seed
from ..wire import WireRecord
from .client import serve_request
from .schemas import CompileRequest, CompileResponse, ErrorPayload

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import ArtifactStore

__all__ = ["JobState", "JobInfo", "JobManager", "JobManagerStats"]

#: transparent retries of retriable faults a job gets unless its
#: ``CompileRequest.max_retries`` says otherwise.
DEFAULT_MAX_RETRIES = 2

#: base and cap (seconds) of the retry backoff window: attempt ``n`` draws
#: uniformly from ``[0, min(cap, base * 2**(n-1))]``.
RETRY_BACKOFF_S = 0.05
RETRY_BACKOFF_CAP_S = 2.0

#: concluded jobs a manager keeps answering repeats from, least recently
#: used first out, and finished jobs it keeps answering ``status`` and
#: ``result`` for, first finished first out (about 2 KB of JSON each).
REMEMBERED_JOBS = 1024

#: the wait surface every job answered at ``submit`` shares: set from the start.
_PUBLISHED = threading.Event()
_PUBLISHED.set()


class JobState(str, Enum):
    """Lifecycle of one submitted compile job."""

    QUEUED = "queued"
    RUNNING = "running"
    DONE = "done"
    FAILED = "failed"

    @property
    def finished(self) -> bool:
        return self in (JobState.DONE, JobState.FAILED)


@dataclass(frozen=True)
class JobInfo(WireRecord):
    """Point-in-time snapshot of one job's state.

    ``seconds`` is the submit-to-finish latency (``None`` while the job is
    still in flight); ``coalesced`` marks a follower that shared another
    job's compile instead of running its own.
    """

    job_id: str
    model: str
    state: JobState
    error: ErrorPayload | None = None
    seconds: float | None = None
    coalesced: bool = False


@dataclass
class JobManagerStats:
    """Lifetime counters of one :class:`JobManager`."""

    submitted: int = 0
    #: jobs that shared an identical request's compile, in flight or
    #: concluded, instead of reaching the pool.
    coalesced: int = 0
    completed: int = 0
    failed: int = 0
    #: attempts transparently resubmitted after a retriable fault.
    retried: int = 0
    #: attempts that failed because the worker pool broke under them.
    displaced: int = 0
    #: submissions rejected by admission control (``max_queue_depth``).
    rejected: int = 0
    #: jobs whose per-request deadline expired before a result landed.
    deadline_expired: int = 0


def backoff_delay(request: CompileRequest, attempt: int) -> float:
    """Seconds retry ``attempt`` (>= 1) of ``request`` waits before it runs.

    Exponential backoff with full jitter, deterministic per (request seed,
    fingerprint, attempt) — replayable like every other stochastic stage
    (see :mod:`repro.seeding`).
    """
    master = request.seed if request.seed is not None else 0
    rng = random.Random(
        derive_seed(master, f"retry:{request.fingerprint()}:{attempt}")
    )
    window = min(RETRY_BACKOFF_CAP_S, RETRY_BACKOFF_S * 2 ** (attempt - 1))
    return rng.uniform(0.0, window)


def _execute_job(
    request_dict: dict[str, Any],
    config: FPSAConfig | None,
    cache: StageCache | bool | None,
    attempt: int = 0,
) -> tuple[dict[str, Any], str | None]:
    """Worker entry point (module-level so process pools can pickle it).

    Returns the response as a wire dict plus the emitted bitstream JSON (if
    any) so the parent can persist both to an artifact store.  ``cache`` is
    the manager's setting, as it arrived in this process.

    ``attempt`` is the retry ordinal (0 = first try).  A retry first sleeps
    its :func:`backoff_delay`, here in the worker, so the parent keeps no
    timer.  The ordinal reaches the fault-injection site so a chaos plan
    can target "the first attempt only", which keeps crash faults
    self-limiting across retries.
    """
    from .. import faults

    request = CompileRequest.from_dict(request_dict)
    if attempt:
        time.sleep(backoff_delay(request, attempt))
    if request.fault_plan:
        faults.install_plan(request.fault_plan)
    # crash/hang/io_error faults fire *before* the compile so an injected
    # OSError propagates raw through the future (the retriable path);
    # serve_request would otherwise wrap it into an error response
    faults.fire(
        faults.SITE_WORKER_COMPILE,
        model=request.model,
        duplication_degree=request.duplication_degree,
        num_chips=request.num_chips,
        attempt=attempt,
    )
    served = serve_request(request, config=config, cache=cache)
    bitstream = None
    if served.result is not None and served.result.bitstream is not None:
        bitstream = served.result.bitstream.to_json()
    return served.response.to_dict(), bitstream


def _answer(response: CompileResponse, request: CompileRequest) -> CompileResponse:
    """A shared compile's ``response`` as the answer to ``request``: the same
    object when the requests are equal (its content address is memoized on
    it), else a copy under ``request`` — fingerprints exclude ``tags``."""
    if request is response.request or request == response.request:
        return response
    return dataclasses.replace(response, request=request)


class _Job:
    """Internal bookkeeping of one submitted request."""

    def __init__(self, job_id: str, request: CompileRequest, fingerprint: str, published=False):
        self.job_id = job_id
        self.request = request
        self.future: Future | None = None
        self.response: CompileResponse | None = None
        self.finished = _PUBLISHED if published else threading.Event()
        self.cancelled = False
        #: canonical request identity used for coalescing (tags excluded).
        self.fingerprint = fingerprint
        #: follower jobs sharing this (primary) job's compile.
        self.followers: list["_Job"] = []
        #: the primary job this (follower) job coalesced onto.
        self.primary: "_Job | None" = None
        #: set (under the manager lock) once the fan-out follower snapshot
        #: is taken: no follower may attach past this point.
        self.retired = False
        #: the compile's response, set in that same lock hold when repeats
        #: may be answered with it (``response`` can be a deadline error).
        self.compiled: CompileResponse | None = None
        self.submitted_at = time.monotonic()
        self.finished_at: float | None = None
        #: retries resubmitted so far (0 while the first try is in flight).
        self.attempts = 0
        #: absolute monotonic deadline, or ``None`` for no deadline.
        self.deadline_at: float | None = None
        if request.deadline_s is not None:
            self.deadline_at = self.submitted_at + request.deadline_s
        #: pool generation the current attempt was submitted against.
        self.generation = 0
        #: whether this (primary) job occupies an admission-control slot.
        self.counted = False

    @property
    def seconds(self) -> float | None:
        if self.finished_at is None:
            return None
        return self.finished_at - self.submitted_at


class JobManager:
    """Submit compile requests to a worker pool and track their lifecycle.

    Parameters
    ----------
    max_workers:
        Pool size; ``None`` picks ``min(cpu_count, 8)``.
    config:
        Hardware configuration served to every job.
    cache:
        Stage-cache setting forwarded to every job (see
        :class:`~repro.core.compiler.FPSACompiler`): ``None`` shares each
        worker's process-wide cache, ``False`` disables caching, and a
        private :class:`StageCache` arrives in each worker process as that
        process's own copy (same bound and shared tier, its own memory) —
        or is shared as is by the threads of an in-process ``pool``.
    store:
        When given, every finished job's response (and bitstream) is
        persisted as the results arrive in the parent process.
    pool:
        A persistent :class:`~repro.core.api.WorkerPool` (or any
        ``Executor``) to run jobs on.  The manager does *not* own it: it
        stays alive after ``shutdown``/``__exit__``, so the next manager
        (or batch) reuses the same warm workers.  Without one, the manager
        runs jobs on a :class:`WorkerPool` of ``max_workers`` it owns.
    coalesce:
        Deduplicate identical requests (default on): a request whose
        canonical fingerprint matches a submitted-but-unfinished job
        rides that job's compile and receives its response under its own
        request, and one that matches a remembered concluded job is
        answered with that response at once.
    max_queue_depth:
        Admission-control cap on uncoalesced in-flight jobs; submissions
        past the cap raise a retriable
        :class:`~repro.errors.OverloadedError` instead of queueing
        unboundedly.  Coalesced requests are always taken (they occupy
        no worker).  ``None`` (default) disables the cap.

    A :class:`WorkerPool` heals itself when a worker dies; a bare
    ``Executor`` as ``pool=`` runs unsupervised.

    The manager is a context manager; leaving the ``with`` block shuts the
    pool down after the submitted jobs finish (owned pools only).
    """

    def __init__(
        self,
        max_workers: int | None = None,
        config: FPSAConfig | None = None,
        cache: StageCache | bool | None = None,
        store: "ArtifactStore | None" = None,
        pool: "WorkerPool | Executor | None" = None,
        coalesce: bool = True,
        max_queue_depth: int | None = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise InvalidRequestError(
                f"max_workers must be >= 1, got {max_workers}",
                details={"max_workers": max_workers},
            )
        if max_queue_depth is not None and (
            not isinstance(max_queue_depth, int)
            or isinstance(max_queue_depth, bool)
            or max_queue_depth < 1
        ):
            raise InvalidRequestError(
                f"max_queue_depth must be an integer >= 1, "
                f"got {max_queue_depth!r}",
                details={"max_queue_depth": repr(max_queue_depth)},
            )
        self._owns_pool = pool is None
        #: the pool jobs run on.
        self.pool: WorkerPool | Executor = (
            pool if pool is not None else WorkerPool(max_workers)
        )
        self.config = config
        self.cache = cache
        self.store = store
        self.coalesce = coalesce
        self.max_queue_depth = max_queue_depth
        self.stats = JobManagerStats()
        #: every in-flight job and the last REMEMBERED_JOBS finished ones.
        self._jobs: dict[str, _Job] = {}
        #: ids of the finished jobs ``_jobs`` holds, first finished first.
        self._finished_ids: deque[str] = deque()
        #: fingerprint -> the job identical requests share: in flight until
        #: ``retired``, then remembered (oldest use first) if ``compiled``.
        self._shared: dict[str, _Job] = {}
        self._active = 0
        self._closing = False
        self._lock = threading.Lock()
        self._counter = itertools.count(1)

    # ------------------------------------------------------------------
    # submission
    # ------------------------------------------------------------------

    def submit(self, request: CompileRequest | str | dict) -> str:
        """Queue one request; returns its job id immediately.

        With coalescing enabled, a request identical to one already in
        flight (same canonical fingerprint) does not reach the pool at
        all: it becomes a follower of the in-flight job and finishes when
        that compile does, with the response under its own request (the
        same object if the requests are equal, else a copy).  One
        identical to a remembered concluded job is finished before
        ``submit`` returns, on the caller's thread, in the same way: it is
        published in the lock hold that makes it visible.  Both bypass
        admission control; a fresh request past ``max_queue_depth`` raises
        :class:`~repro.errors.OverloadedError` without queueing.
        """
        return self._submit(request).job_id

    def _submit(self, request: CompileRequest | str | dict) -> _Job:
        if isinstance(request, str):
            request = CompileRequest(model=request)
        elif isinstance(request, dict):
            request = CompileRequest.from_dict(request)
        fingerprint = request.fingerprint()
        with self._lock:
            job_id = f"job-{next(self._counter):04d}"
            primary = self._shared.get(fingerprint)
            if primary is not None and primary.retired:
                # concluded: what a follower received, set before the job is
                # visible; from here on the most recently used entry
                job = _Job(job_id, request, fingerprint, published=True)
                self._settle(job, _answer(primary.compiled, request), job.submitted_at)
                self._shared[fingerprint] = self._shared.pop(fingerprint)
            elif primary is not None:
                # attach under the lock: _conclude retires the entry under
                # the same lock, so the primary cannot fan out between our
                # check and the attach
                job = _Job(job_id, request, fingerprint)
                primary.followers.append(job)
            elif (
                self.max_queue_depth is not None
                and self._active >= self.max_queue_depth
            ):
                self.stats.rejected += 1
                raise OverloadedError(
                    f"queue depth {self._active} is at the cap "
                    f"{self.max_queue_depth}; back off and resubmit",
                    details={
                        "queue_depth": self._active,
                        "max_queue_depth": self.max_queue_depth,
                    },
                )
            else:
                job = _Job(job_id, request, fingerprint)
                job.counted = True
                self._active += 1
                if self.coalesce:
                    self._shared[fingerprint] = job
            job.primary = primary
            self._jobs[job_id] = job
            self.stats.submitted += 1
            if primary is not None:
                self.stats.coalesced += 1
        if primary is not None:
            if job.finished is _PUBLISHED:
                self._persist(job, job.response, None)
            return job
        try:
            self._submit_attempt(job)
        except Exception as exc:
            # e.g. submit after shutdown: don't leave an orphan job that
            # wait_all()/result() would block on forever — and release any
            # follower that attached between the lock and the failed submit
            with self._lock:
                self._jobs.pop(job_id, None)
                if self._shared.get(job.fingerprint) is job:
                    del self._shared[job.fingerprint]
                if job.counted:
                    job.counted = False
                    self._active -= 1
                followers = list(job.followers)
            now = time.monotonic()
            for follower in followers:
                self._publish(
                    follower,
                    CompileResponse(
                        request=follower.request,
                        status="error",
                        error=ErrorPayload.from_exception(exc),
                    ),
                    None,
                    now,
                )
            raise
        return job

    def submit_batch(self, requests: Iterable[CompileRequest | str | dict]) -> list[str]:
        """Queue a batch of requests; returns their job ids in order."""
        return [self.submit(request) for request in requests]

    def serve(
        self, request: CompileRequest | str | dict, timeout: float | None = None
    ) -> CompileResponse:
        """Serve one request; the job is held, so no later one forgets it unread."""
        return self._result(self._submit(request), timeout)

    def serve_batch(
        self, requests: Iterable[CompileRequest | str | dict], timeout: float | None = None
    ) -> list[CompileResponse]:
        """Serve a batch of requests as :meth:`serve` does; responses in order."""
        jobs = [self._submit(request) for request in requests]
        return [self._result(job, timeout) for job in jobs]

    def _submit_attempt(self, job: _Job) -> None:
        """Hand the job's current attempt to the pool.

        A submission that hits an already-broken :class:`WorkerPool` heals
        it and tries once more on the fresh executor; on a bare executor
        the breakage propagates to the caller.
        """
        pool = self.pool
        heals = isinstance(pool, WorkerPool)
        for healed in (False, True):
            generation = pool.generation if heals else 0
            try:
                future = pool.submit(
                    _execute_job,
                    job.request.to_dict(),
                    self.config,
                    self.cache,
                    job.attempts,
                )
            except BrokenExecutor:
                if not heals or healed:
                    raise
                pool.heal(generation)
                continue
            job.generation = generation
            job.future = future
            future.add_done_callback(lambda f, j=job: self._finish(j, f))
            return

    # ------------------------------------------------------------------
    # completion, retries, deadlines
    # ------------------------------------------------------------------

    def _error_payload_for(self, exc: BaseException, job: _Job) -> ErrorPayload:
        """Map a future exception to a typed payload.

        Pool breakage becomes a retriable ``worker_crash``; a bare
        ``OSError`` escaping a worker becomes a retriable ``transient_io``;
        typed FPSA errors keep their own codes.
        """
        if isinstance(exc, BrokenExecutor):
            return ErrorPayload(
                code=WorkerCrashError.code,
                type=WorkerCrashError.__name__,
                message=(
                    f"worker process died while compiling "
                    f"{job.request.model!r} (attempt {job.attempts})"
                ),
                details={"model": job.request.model, "attempt": job.attempts},
            )
        if isinstance(exc, FPSAError):
            return ErrorPayload.from_exception(exc)
        if isinstance(exc, OSError):
            return ErrorPayload(
                code=TransientIOError.code,
                type=type(exc).__name__,
                message=str(exc) or type(exc).__name__,
                details={"model": job.request.model, "attempt": job.attempts},
            )
        return ErrorPayload.from_exception(exc)

    def _finish(self, job: _Job, future: Future) -> None:
        broken = False
        try:
            response_dict, bitstream = future.result()
            # the worker echoes the request back: answer with the one we hold
            response = CompileResponse.from_dict(response_dict, request=job.request)
        except CancelledError:
            response = CompileResponse(
                request=job.request,
                status="error",
                error=ErrorPayload(
                    code="cancelled",
                    type="CancelledError",
                    message="job was cancelled before it ran",
                ),
            )
            bitstream = None
        except Exception as exc:  # noqa: BLE001 - worker crashed; report, don't hang
            broken = isinstance(exc, BrokenExecutor)
            response = CompileResponse(
                request=job.request,
                status="error",
                error=self._error_payload_for(exc, job),
            )
            bitstream = None
        if broken:
            with self._lock:
                self.stats.displaced += 1
            if isinstance(self.pool, WorkerPool):
                # heal once per breakage (concurrent reports coalesce on
                # the generation), whether or not this job retries
                self.pool.heal(job.generation)
        retriable = (
            response.error is not None
            and response.error.code in RETRIABLE_CODES
            and not job.cancelled
        )
        if retriable and self._retry(job):
            return  # keep the in-flight entry: followers still coalesce
        self._conclude(job, response, bitstream)

    def _conclude(
        self, job: _Job, response: CompileResponse, bitstream: str | None
    ) -> None:
        """Retire a primary job and fan its response out to followers."""
        # stop accepting followers before publishing, and in the same lock
        # hold either remember the compile or forget the fingerprint: no
        # identical request can fall between the two and compile again
        with self._lock:
            job.retired = True
            if self._shared.get(job.fingerprint) is job:
                del self._shared[job.fingerprint]
                # an error may not repeat; use_cache=False asks for a fresh
                # compile; a bitstream is not on the response to hand out
                if response.ok and job.request.use_cache and bitstream is None:
                    job.compiled = response
                    self._shared[job.fingerprint] = job
                    if len(self._shared) > REMEMBERED_JOBS:
                        # never an in-flight entry: their followers wait
                        del self._shared[
                            next(k for k, j in self._shared.items() if j.retired)
                        ]
            followers = list(job.followers)
            if job.counted:
                job.counted = False
                self._active -= 1
        now = time.monotonic()
        self._publish(job, response, bitstream, now)
        for follower in followers:
            self._publish(follower, _answer(response, follower.request), bitstream, now)

    def _retry(self, job: _Job) -> bool:
        """Resubmit a retriable failure at once (the worker sleeps its
        backoff); False when out of budget, shutting down, or past the
        deadline of every job still waiting on the compile (the primary
        and its followers)."""
        budget = job.request.max_retries
        if budget is None:
            budget = DEFAULT_MAX_RETRIES
        with self._lock:
            if self._closing or job.retired or job.attempts >= budget:
                return False
            now = time.monotonic()
            if not any(
                waiting.response is None
                and (waiting.deadline_at is None or now < waiting.deadline_at)
                for waiting in (job, *job.followers)
            ):
                return False
            job.attempts += 1
            self.stats.retried += 1
        try:
            self._submit_attempt(job)
        except Exception as exc:  # noqa: BLE001 - conclude, never hang waiters
            self._conclude(
                job,
                CompileResponse(
                    request=job.request,
                    status="error",
                    error=self._error_payload_for(exc, job),
                ),
                None,
            )
        return True

    def _publish(
        self,
        job: _Job,
        response: CompileResponse | None,
        bitstream: str | None,
        finished_at: float,
    ) -> None:
        """Finalize one job: record (:meth:`_settle`), persist, and wake its
        waiters.  First publish wins, so an expiry and a late result race benignly."""
        with self._lock:
            published = self._settle(job, response, finished_at)
        if published is None:
            return
        try:
            self._persist(job, published, bitstream if published is response else None)
        finally:
            job.finished.set()

    def _settle(
        self, job: _Job, response: CompileResponse | None, finished_at: float
    ) -> CompileResponse | None:
        """Record a job's outcome, under the lock the caller holds; returns
        the response it publishes, or ``None`` if it had one already.

        A response that lands at or after the job's deadline is replaced by
        the typed ``deadline_exceeded`` error, finished at the deadline;
        ``response`` is ``None`` when only the deadline landed (a waiter or
        observer outlived it).  Only that job expires: a coalesced sibling
        with a longer deadline keeps waiting, and the compile keeps running
        for whoever still wants it.  Past :data:`REMEMBERED_JOBS` finished
        jobs, the first finished is forgotten.
        """
        if job.response is not None:
            return None
        if job.deadline_at is not None and finished_at >= job.deadline_at:
            finished_at = job.deadline_at
            response = CompileResponse(
                request=job.request,
                status="error",
                error=ErrorPayload(
                    code=DeadlineExceededError.code,
                    type=DeadlineExceededError.__name__,
                    message=(
                        f"job {job.job_id!r} missed its deadline of "
                        f"{job.request.deadline_s} s"
                    ),
                    details={
                        "job_id": job.job_id,
                        "deadline_s": job.request.deadline_s,
                    },
                ),
            )
            self.stats.deadline_expired += 1
        assert response is not None
        job.response = response
        job.finished_at = finished_at
        if response.ok:
            self.stats.completed += 1
        else:
            self.stats.failed += 1
        self._finished_ids.append(job.job_id)
        if len(self._finished_ids) > REMEMBERED_JOBS:
            self._jobs.pop(self._finished_ids.popleft(), None)
        return response

    def _persist(self, job: _Job, response: CompileResponse, bitstream: str | None) -> None:
        """Save a published response (and bitstream) to the store, if any."""
        try:
            if self.store is not None:
                self.store.save(response, bitstream_json=bitstream)
        except Exception as exc:  # noqa: BLE001 - persistence must never lose the job
            print(
                f"warning: failed to persist job {job.job_id}: {exc}",
                file=sys.stderr,
            )

    def _wait(self, job: _Job, timeout: float | None = None) -> bool:
        """Block until the job is published, ``timeout`` passes or its
        deadline does, whichever is first; a waiter that outlives the
        deadline publishes the expiry.  Returns whether the job finished."""
        # the job's future can complete a hair before its done callback
        # fills in the response; ``finished`` is set only once the response
        # is published, so the event is the single wait surface (it also
        # spans retries, where the future is replaced per attempt)
        if job.deadline_at is not None:
            until_deadline = max(0.0, job.deadline_at - time.monotonic())
            if timeout is None or until_deadline <= timeout:
                if not job.finished.wait(until_deadline):
                    self._publish(job, None, None, job.deadline_at)
                    job.finished.wait()  # a racing publish is mid-persist
                return True
        return job.finished.wait(timeout)

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------

    def _get(self, job_id: str) -> _Job:
        try:
            return self._jobs[job_id]
        except KeyError:
            raise InvalidRequestError(
                f"unknown job id {job_id!r}", details={"job_id": job_id}
            ) from None

    def status(self, job_id: str) -> JobInfo:
        """Snapshot of one job's lifecycle state."""
        return self._info(self._get(job_id))

    def _info(self, job: _Job) -> JobInfo:
        coalesced = job.primary is not None
        if (
            job.response is None
            and job.deadline_at is not None
            and time.monotonic() >= job.deadline_at
        ):
            # overdue with no waiter: the observer publishes the expiry
            self._publish(job, None, None, job.deadline_at)
        if job.response is not None:
            state = JobState.DONE if job.response.ok else JobState.FAILED
            return JobInfo(
                job.job_id,
                job.request.model,
                state,
                error=job.response.error,
                seconds=job.seconds,
                coalesced=coalesced,
            )
        # a follower's lifecycle mirrors the primary compile it shares
        primary = job.primary or job
        future = primary.future
        # a completed future whose done callback has not filled in the
        # response yet must still read RUNNING, never regress to QUEUED;
        # so must a retry, whose worker may be sleeping out its backoff
        if primary.attempts or (
            future is not None and (future.running() or future.done())
        ):
            return JobInfo(
                job.job_id, job.request.model, JobState.RUNNING, coalesced=coalesced
            )
        return JobInfo(
            job.job_id, job.request.model, JobState.QUEUED, coalesced=coalesced
        )

    def jobs(self) -> list[JobInfo]:
        """Snapshots of every job still held, in submission order."""
        with self._lock:
            jobs = list(self._jobs.values())
        return [self._info(job) for job in jobs]

    def result(self, job_id: str, timeout: float | None = None) -> CompileResponse:
        """Block until the job finishes; returns its response.

        A job past its deadline returns its ``deadline_exceeded`` error at
        the deadline.  FAILED jobs return normally with the structured error payload on
        the response; call ``response.raise_for_status()`` for the typed
        exception.  An expired ``timeout`` raises
        :class:`~repro.errors.DeadlineExceededError` (a ``TimeoutError``
        subclass, so pre-existing ``except TimeoutError`` callers keep
        working) carrying the job id and the timeout in ``details``.
        A forgotten job id is unknown (see :data:`REMEMBERED_JOBS`).
        """
        return self._result(self._get(job_id), timeout)

    def _result(self, job: _Job, timeout: float | None) -> CompileResponse:
        if not self._wait(job, timeout):
            raise DeadlineExceededError(
                f"job {job.job_id!r} did not finish within {timeout} s",
                details={"job_id": job.job_id, "timeout": timeout},
            )
        assert job.response is not None
        return job.response

    def cancel(self, job_id: str) -> bool:
        """Cancel a QUEUED job; returns whether cancellation succeeded.

        A cancelled job moves to FAILED with a ``cancelled`` error payload.
        RUNNING (retries included) and finished jobs cannot be cancelled,
        and neither can
        coalesced jobs: a follower shares its compile with other waiters,
        and cancelling a primary with followers would cancel them all.
        """
        job = self._get(job_id)
        if job.future is None or job.response is not None:
            return False
        # retire the in-flight entry *before* cancelling so no follower can
        # attach between the check and the cancel (Future.cancel runs the
        # done callbacks synchronously, so it must happen outside the lock)
        with self._lock:
            if job.followers or job.retired or job.attempts:
                return False
            removed = self._shared.get(job.fingerprint) is job
            if removed:
                del self._shared[job.fingerprint]
        cancelled = job.future.cancel()
        if cancelled:
            job.cancelled = True
        elif removed:
            # the job is running after all: restore coalescability unless
            # its fan-out already snapshotted the followers (retired) or a
            # duplicate already claimed the slot
            with self._lock:
                if not job.retired:
                    self._shared.setdefault(job.fingerprint, job)
        return cancelled

    def wait_all(self, timeout: float | None = None) -> list[CompileResponse]:
        """Block until every job still held finishes; responses in order."""
        with self._lock:
            jobs = list(self._jobs.values())
        return [self._result(job, timeout) for job in jobs]

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def shutdown(self, wait: bool = True) -> None:
        """Shut the pool down — owned pools only; an external
        :class:`WorkerPool` stays warm for the next manager.

        New retries stop once shutdown begins (an attempt failing mid-drain
        concludes with its retriable error instead of resubmitting); with
        ``wait=True``, every job in flight is drained first, each at most
        until its deadline.
        """
        self._closing = True
        if wait:
            with self._lock:
                jobs = list(self._jobs.values())
            for job in jobs:
                if job.primary is None:  # a follower finishes with its primary
                    self._wait(job)
        if self._owns_pool:
            self.pool.shutdown(wait=wait)

    def __enter__(self) -> "JobManager":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()
