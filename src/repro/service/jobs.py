"""Async job management over the compilation service.

The :class:`JobManager` is the batch front door: it fans compile requests
out over a process pool with service semantics (coalescing, retries,
deadlines, admission control; ARCHITECTURE.md "The service layer" and
"Fault tolerance & chaos").  ``submit`` returns a job id at once and
``result`` hands back the wire-level
:class:`~repro.service.schemas.CompileResponse`, failures included as
structured error payloads.  Requests and responses cross the worker
boundary as plain dicts, so the pool exercises exactly the wire schemas an
out-of-process front-end would.  A worker stores the answer it compiled
(:func:`_execute_job`), so only the run id crosses back for the store.

A worker that dies fails only the job it ran
(:class:`~repro.core.api.WorkerPool`), which is retried like any retriable
fault; the fault-plan firings the workers report are summed in
:attr:`JobManager.fault_firings`.

A job's lifecycle is one private ``state`` and the one table
:data:`_LIFECYCLE` of the moves between states; :meth:`JobManager._move`
makes every move and nothing else writes a state.  ARCHITECTURE.md "Job
lifecycle" prints the table with each move's effect.  The manager reads
time only through its ``_clock`` and starts no thread of its own.
"""

from __future__ import annotations

import dataclasses
import itertools
import random
import sys
import threading
import time
from collections import deque
from concurrent.futures import CancelledError, Executor, Future
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
    VerificationError,
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
_ALREADY_SET = threading.Event()
_ALREADY_SET.set()

#: The states of a job.  A follower waits on an identical job's compile; an
#: in-flight job's own compile is queued, running or retrying; an overdue
#: job was answered at its deadline while its compile runs on for others; a
#: published job is answered and held by id; a forgotten one is not.
_FOLLOWER = "follower"
_IN_FLIGHT = "in flight"
_OVERDUE = "overdue"
_PUBLISHED = "published"
_FORGOTTEN = "forgotten"
_WAITING = frozenset({_FOLLOWER, _IN_FLIGHT})  # unanswered
_COMPILING = frozenset({_IN_FLIGHT, _OVERDUE})  # holds an admission slot
_ANSWERED = frozenset({_OVERDUE, _PUBLISHED})

#: (state, event) -> next state: every move a job makes (``None``: not yet
#: made).  Repeats are answered from a concluded job in any state.
_LIFECYCLE: dict[tuple[str | None, str], str] = {
    (None, "submit"): _IN_FLIGHT,
    (None, "attach"): _FOLLOWER,
    (None, "repeat"): _PUBLISHED,
    (_IN_FLIGHT, "retry"): _IN_FLIGHT,
    (_OVERDUE, "retry"): _OVERDUE,
    (_IN_FLIGHT, "expire"): _OVERDUE,
    (_FOLLOWER, "expire"): _PUBLISHED,
    (_IN_FLIGHT, "conclude"): _PUBLISHED,
    (_OVERDUE, "conclude"): _PUBLISHED,
    (_FOLLOWER, "conclude"): _PUBLISHED,
    (_IN_FLIGHT, "refuse"): _FORGOTTEN,
    (_OVERDUE, "refuse"): _PUBLISHED,
    (_PUBLISHED, "forget"): _FORGOTTEN,
}


class JobState(str, Enum):
    """Lifecycle of one submitted compile job, as ``status`` reports it."""

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
    #: attempts failed by the death of a worker that was not running them:
    #: none, since a :class:`WorkerPool` worker's death fails only its own
    #: job; kept for the readers of the counter.
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


def _fault_context(request: CompileRequest, attempt: int) -> dict[str, Any]:
    """What the worker-compile fault site of ``request``'s attempt fires with."""
    return {
        "model": request.model,
        "duplication_degree": request.duplication_degree,
        "num_chips": request.num_chips,
        "attempt": attempt,
    }


def _execute_job(
    request_dict: dict[str, Any],
    config: FPSAConfig | None,
    cache: StageCache | bool | None,
    store: "ArtifactStore | None" = None,
    attempt: int = 0,
) -> tuple[dict[str, Any], str | None, bool]:
    """Worker entry point (module-level so process pools can pickle it):
    the response as a wire dict, the run id it is stored under and whether
    the compile emitted a bitstream.

    With a ``store`` (a process pool hands the worker its own instance of
    the manager's, which it keeps for its life,
    :meth:`ArtifactStore.__reduce__`) the worker saves the response and
    the bitstream itself, off the pool's collector thread, and returns the
    dict the save encoded; without one the bitstream is not serialised at
    all.  The run id is ``None`` when there is no store or the save failed:
    a failed save is only a warning on stderr, never an ``OSError`` out of
    the job, which would read as a retriable fault and compile again.
    Retry ``attempt`` (0 = first try) first sleeps its :func:`backoff_delay`
    here, so the parent keeps no timer; the ordinal reaches the fault site,
    so a chaos plan can target the first attempt."""
    from .. import faults

    request = CompileRequest.from_dict(request_dict)
    if attempt:
        time.sleep(backoff_delay(request, attempt))
    # crash/hang/io_error faults fire *before* the compile so an injected
    # OSError propagates raw through the future (the retriable path);
    # serve_request would otherwise wrap it into an error response
    faults.fire(faults.SITE_WORKER_COMPILE, **_fault_context(request, attempt))
    served = serve_request(request, config=config, cache=cache)
    response = served.response
    bitstream = served.result.bitstream if served.result is not None else None
    data, run_id = response.to_dict(), None
    if store is not None:
        try:
            bitstream_json = None if bitstream is None else bitstream.to_json()
            run_id = store.save(response, bitstream_json, data=data)
        except Exception as exc:  # noqa: BLE001 - persistence must never lose the answer
            print(f"warning: failed to persist a {request.model} run: {exc}", file=sys.stderr)
    return data, run_id, bitstream is not None


def _error_response(job: "_Job", exc: BaseException) -> CompileResponse:
    """An exception as the typed error answer to ``job``: cancellation is
    ``cancelled``, a worker's death a retriable ``worker_crash``, a bare
    ``OSError`` escaping a worker a retriable ``transient_io``; typed FPSA
    errors keep their own codes."""
    details = {"model": job.request.model, "attempt": job.attempts}
    if isinstance(exc, CancelledError):
        error = ErrorPayload(
            code="cancelled", type="CancelledError", message="job was cancelled before it ran"
        )
    elif isinstance(exc, WorkerCrashError):
        error = ErrorPayload.from_exception(WorkerCrashError(
            f"{exc} while compiling {job.request.model!r} (attempt {job.attempts})",
            details={**exc.details, **details},
        ))
    elif isinstance(exc, OSError) and not isinstance(exc, FPSAError):
        error = ErrorPayload(
            code=TransientIOError.code,
            type=type(exc).__name__,
            message=str(exc) or type(exc).__name__,
            details=details,
        )
    else:
        error = ErrorPayload.from_exception(exc)
    return CompileResponse(request=job.request, status="error", error=error)


def _answer(response: CompileResponse, request: CompileRequest) -> CompileResponse:
    """A shared compile's ``response`` as the answer to ``request``: the same
    object when the requests are equal (its content address is memoized on
    it), else a copy under ``request`` — fingerprints exclude ``tags``."""
    if request is response.request or request == response.request:
        return response
    return dataclasses.replace(response, request=request)


class _Job:
    """One submitted request; :meth:`JobManager._move` writes its ``state``."""

    state: str | None = None
    future: Future | None = None
    response: CompileResponse | None = None
    finished_at: float | None = None
    #: follower jobs sharing this (primary) job's compile: a list once it is one.
    followers: "list[_Job] | tuple" = ()
    #: the compile's answer repeats share (``response`` may be a deadline error).
    compiled: CompileResponse | None = None
    #: retries resubmitted so far.
    attempts = 0

    def __init__(self, job_id, request, now, primary=None, finished=None):
        self.job_id = job_id
        self.request = request
        #: the job whose compile this follower (or repeat) shares.
        self.primary: _Job | None = primary
        self.finished = threading.Event() if finished is None else finished
        self.submitted_at = now
        #: absolute deadline on the manager's clock, or ``None``.
        self.deadline_at = None if request.deadline_s is None else now + request.deadline_s


class JobManager:
    """Submit compile requests to a worker pool and track their lifecycle.

    Parameters
    ----------
    max_workers:
        Size of the pool the manager owns; ``None`` picks ``min(cpu_count, 8)``.
    config:
        Hardware configuration served to every job.
    cache:
        Stage-cache setting forwarded to every job: ``None`` shares each
        worker's process-wide cache, ``False`` disables caching, and a
        private :class:`StageCache` arrives in each worker process as its
        own copy (or is shared as is by the threads of an in-process pool).
    store:
        When given, every published answer (and bitstream) is persisted.
        A worker saves the answer it compiled (and its bitstream) into its
        own instance of the store; the manager saves only the answers it
        makes itself: a follower's copy under other ``tags``, a repeat's,
        and crash, cancel and deadline errors.  A worker keeps its
        instance for its life, so a ``use_cache=False`` repeat that lands
        on the worker that saved the run writes nothing; on another worker
        it writes the run again: its ``response.json`` then holds that
        save's volatile timings, and the index one more line for the id.
    pool:
        A persistent :class:`~repro.core.api.WorkerPool` (or any
        ``Executor``) the manager runs jobs on but does not own or shut
        down.  A :class:`WorkerPool` replaces a worker that dies and fails
        only the job it ran, which is retried; a bare ``Executor`` runs
        unsupervised.
    coalesce:
        Deduplicate identical requests (default on): one whose fingerprint
        matches a compiling job rides that compile, one that matches a
        remembered concluded job is answered with its response at once.
    max_queue_depth:
        Admission-control cap on uncoalesced in-flight jobs: past it a
        fresh submission raises a retriable
        :class:`~repro.errors.OverloadedError`.  ``None`` disables it.

    Leaving a ``with`` block shuts the manager down (:meth:`shutdown`).
    :attr:`fault_firings` sums, per spec of the ``REPRO_FAULT_PLAN`` plan,
    the firings the workers report with their answers; a worker that dies
    running a job fired the first crash spec its compile site matches.
    """

    #: the only time source of a manager (tests replace it per instance).
    _clock = staticmethod(time.monotonic)

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
                f"max_queue_depth must be an integer >= 1, got {max_queue_depth!r}",
                details={"max_queue_depth": repr(max_queue_depth)},
            )
        self._owns_pool = pool is None
        self.pool: WorkerPool | Executor = pool if pool is not None else WorkerPool(max_workers)
        self.config = config
        self.cache = cache
        self.store = store
        self.coalesce = coalesce
        self.max_queue_depth = max_queue_depth
        self.stats = JobManagerStats()
        #: fault-plan firings reported by the workers, per spec.
        self.fault_firings: list[int] = []
        #: every job not forgotten, by id: the unanswered and compiling ones
        #: and the last REMEMBERED_JOBS published.
        self._jobs: dict[str, _Job] = {}
        #: the published jobs ``_jobs`` holds, first published first.
        self._published: deque[_Job] = deque()
        #: fingerprint -> the job identical requests share: compiling (they
        #: attach), else concluded (answered with ``compiled``; LRU order).
        self._shared: dict[str, _Job] = {}
        #: admission slots taken: the jobs in a compiling state.
        self._active = 0
        self._closing = False
        # reentrant: ``cancel`` holds it while the future it cancels runs its callback
        self._lock = threading.RLock()
        self._counter = itertools.count(1)

    def _move(
        self,
        job: _Job,
        event: str,
        now: float | None = None,
        answer: CompileResponse | None = None,
    ) -> bool:
        """Make one move of :data:`_LIFECYCLE` under the caller's lock;
        returns whether it answered the job.  Effects follow from the states
        left and entered: a compiling state holds a slot; entering an
        answered state answers ``answer`` at ``now`` (the deadline error at
        the deadline, past it); a published job is held by id until
        REMEMBERED_JOBS later ones are; a refused one was never submitted."""
        was = job.state
        try:
            state = job.state = _LIFECYCLE[was, event]
        except KeyError:
            raise VerificationError(
                f"the job lifecycle has no {event!r} move from {was!r}",
                stage="service", invariant="job lifecycle", ids=(job.job_id,),
            ) from None
        if was in _COMPILING:
            self._active -= 1
        if state in _COMPILING:
            self._active += 1
        if was is None:
            self._jobs[job.job_id] = job
            self.stats.submitted += 1
        elif state == _FORGOTTEN:
            del self._jobs[job.job_id]
            if was in _WAITING:
                self.stats.submitted -= 1
            return False
        answered = state in _ANSWERED and was not in _ANSWERED
        if answered:
            if job.deadline_at is not None and now >= job.deadline_at:
                now, answer = job.deadline_at, _error_response(job, DeadlineExceededError(
                    f"job {job.job_id!r} missed its deadline of {job.request.deadline_s} s",
                    details={"job_id": job.job_id, "deadline_s": job.request.deadline_s},
                ))
                self.stats.deadline_expired += 1
            job.finished_at = now
            job.response = answer
            if answer.ok:
                self.stats.completed += 1
            else:
                self.stats.failed += 1
        if state == _PUBLISHED:
            self._published.append(job)
            if len(self._published) > REMEMBERED_JOBS:
                self._move(self._published.popleft(), "forget")
        return answered

    def _wake(
        self,
        jobs: list[_Job],
        stored: CompileResponse | None = None,
        bitstream_of: str | None = None,
    ) -> None:
        """Persist the answers just published under the lock, then wake each
        job's waiters.  The worker's own answer ``stored`` is skipped: the
        worker saved it.  A copy of it under another request takes along
        the bitstream stored under run ``bitstream_of``."""
        for job in jobs:
            try:
                if job.response is not stored:
                    self._persist(job, bitstream_of if job.response.ok else None)
            finally:
                job.finished.set()

    def submit(self, request: CompileRequest | str | dict) -> str:
        """Queue one request; returns its job id immediately.

        A request identical to a compiling one follows that compile; one
        identical to a remembered concluded job is answered before
        ``submit`` returns.  Either gets the response under its own request
        and bypasses admission control; a fresh request past
        ``max_queue_depth`` raises :class:`~repro.errors.OverloadedError`.
        A request the pool refuses raises and is not counted as submitted.
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
            now = self._clock()
            primary = self._shared.get(fingerprint)
            if primary is not None and primary.state not in _COMPILING:
                # answered before the job is visible; from here on the most
                # recently used entry
                job = _Job(job_id, request, now, primary, _ALREADY_SET)
                self._move(job, "repeat", now, _answer(primary.compiled, request))
                self._shared[fingerprint] = self._shared.pop(fingerprint)
            elif primary is not None:
                # the primary concludes under this lock, so it cannot fan
                # out between the lookup and the attach
                job = _Job(job_id, request, now, primary)
                primary.followers.append(job)
                self._move(job, "attach")
            elif self.max_queue_depth is not None and self._active >= self.max_queue_depth:
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
                job = _Job(job_id, request, now)
                job.followers = []
                self._move(job, "submit")
                if self.coalesce:
                    self._shared[fingerprint] = job
            if primary is not None:
                self.stats.coalesced += 1
        if primary is not None:
            if job.finished is _ALREADY_SET:
                self._persist(job)
            return job
        try:
            self._submit_attempt(job)
        except Exception as exc:
            # e.g. submit after shutdown: the job was never submitted, and
            # a follower that attached meanwhile is answered with the error
            self._conclude(job, _error_response(job, exc), event="refuse")
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
        """Hand the job's current attempt to the pool."""
        future = self.pool.submit(
            _execute_job,
            job.request.to_dict(),
            self.config,
            self.cache,
            self.store,
            job.attempts,
        )
        job.future = future
        future.add_done_callback(lambda f, j=job: self._finish(j, f))

    def _finish(self, job: _Job, future: Future) -> None:
        stored = run_id = None
        emitted = False
        try:
            response_dict, run_id, emitted = future.result()
            # the worker echoes the request back: answer with the one we hold
            response = stored = CompileResponse.from_dict(response_dict, request=job.request)
        except Exception as exc:  # noqa: BLE001 - worker crashed; report, don't hang
            response = _error_response(job, exc)
            if isinstance(exc, WorkerCrashError):
                self._count_crash(job)
        fired = getattr(future, "fault_firings", None)
        if fired:
            self._count_faults(fired)
        if run_id is not None:
            self.store.note_saved(response, run_id, emitted)
        if response.error is not None and response.error.code in RETRIABLE_CODES:
            if self._retry(job):
                return
        self._conclude(job, response, stored, emitted, run_id if emitted else None)

    def _conclude(
        self,
        job: _Job,
        response: CompileResponse,
        stored: CompileResponse | None = None,
        emitted: bool = False,
        bitstream_of: str | None = None,
        event: str = "conclude",
    ) -> None:
        """End a primary's compile: move it by ``event``, answer every follower
        still waiting and remember an answer repeats may share, in one lock
        hold, so no identical request falls in between and compiles again.
        ``stored`` is the worker's answer, which the worker saved; an answer
        that ``emitted`` a bitstream is not remembered, and ``bitstream_of``
        is the run the store keeps that bitstream under."""
        with self._lock:
            now = self._clock()
            woken = [job] if self._move(job, event, now, response) else []
            for follower in job.followers:
                if follower.state in _WAITING:  # else answered at its deadline
                    self._move(follower, "conclude", now, _answer(response, follower.request))
                    woken.append(follower)
            fingerprint = job.request.fingerprint()
            if self._shared.get(fingerprint) is job:
                del self._shared[fingerprint]
                # an error may not repeat; use_cache=False asks for a fresh
                # compile; a bitstream is not on the response to hand out
                if response.ok and job.request.use_cache and not emitted:
                    job.compiled = response
                    self._shared[fingerprint] = job
                    # the bound counts concluded entries: every compiling
                    # job is an entry (coalescing is on) and takes a slot
                    if len(self._shared) - self._active > REMEMBERED_JOBS:
                        # never a compiling entry: its followers wait
                        del self._shared[
                            next(k for k, j in self._shared.items() if j.state not in _COMPILING)
                        ]
        self._wake(woken, stored, bitstream_of)

    def _count_faults(self, fired: list[int]) -> None:
        with self._lock:
            sums = self.fault_firings
            sums += [0] * (len(fired) - len(sums))
            for index, count in enumerate(fired):
                sums[index] += count

    def _count_crash(self, job: _Job) -> None:
        """Credit the death of ``job``'s worker to the first crash spec of
        the fault plan that the job's compile site matches, if any."""
        from .. import faults

        try:
            injector = faults.active_injector()
        except InvalidRequestError:  # a plan that does not parse fired nothing
            return
        specs = injector.plan.faults if injector is not None else ()
        context = _fault_context(job.request, job.attempts)
        for index, spec in enumerate(specs):
            if (spec.kind, spec.site) == (faults.KIND_CRASH, faults.SITE_WORKER_COMPILE) and (
                spec.matches(context)
            ):
                self._count_faults([int(i == index) for i in range(len(specs))])
                return

    def _retry(self, job: _Job) -> bool:
        """Resubmit a retriable failure at once (the worker sleeps its
        backoff); False when out of budget, shutting down, or past the
        deadline of every job still waiting on the compile."""
        budget = job.request.max_retries
        if budget is None:
            budget = DEFAULT_MAX_RETRIES
        with self._lock:
            now = self._clock()
            if self._closing or job.attempts >= budget or not any(
                waiting.state in _WAITING
                and (waiting.deadline_at is None or now < waiting.deadline_at)
                for waiting in (job, *job.followers)
            ):
                return False
            self._move(job, "retry")
            job.attempts += 1
            self.stats.retried += 1
        try:
            self._submit_attempt(job)
        except Exception as exc:  # noqa: BLE001 - conclude, never hang waiters
            self._conclude(job, _error_response(job, exc))
        return True

    def _expire(self, job: _Job) -> None:
        """Answer a job past its deadline with ``deadline_exceeded`` unless it
        has an answer (the first wins).  Only that job expires: its compile
        runs on for a coalesced sibling with a later deadline."""
        with self._lock:
            if job.state not in _WAITING:
                return
            self._move(job, "expire", job.deadline_at)
        self._wake([job])

    def _persist(self, job: _Job, bitstream_of: str | None = None) -> None:
        """Save an answer the manager made itself (and the bitstream the
        store keeps under run ``bitstream_of``), if there is a store."""
        try:
            if self.store is not None:
                bitstream = bitstream_of and self.store.load_bitstream(bitstream_of)
                self.store.save(job.response, bitstream_json=bitstream)
        except Exception as exc:  # noqa: BLE001 - persistence must never lose the job
            print(f"warning: failed to persist job {job.job_id}: {exc}", file=sys.stderr)

    def _wait(self, job: _Job, timeout: float | None = None) -> bool:
        """Block until the job is published, ``timeout`` passes or its
        deadline does, whichever is first; a waiter that outlives the
        deadline publishes the expiry.  Returns whether the job finished."""
        # ``finished`` is set once the answer is persisted: the one wait
        # surface, across retries too (each attempt has its own future)
        if job.finished.is_set():
            return True
        if job.deadline_at is not None:
            until_deadline = max(0.0, job.deadline_at - self._clock())
            if timeout is None or until_deadline <= timeout:
                if not job.finished.wait(until_deadline):
                    self._expire(job)
                    job.finished.wait()  # a racing publish is mid-persist
                return True
        return job.finished.wait(timeout)

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
        deadline = job.deadline_at
        if job.response is None and deadline is not None and self._clock() >= deadline:
            self._expire(job)  # overdue with no waiter: the observer answers
        response = job.response
        if response is not None:
            state = JobState.DONE if response.ok else JobState.FAILED
        else:
            # a follower mirrors the compile it shares; a future that
            # completed before its callback answered still reads RUNNING,
            # and so does a retry, whose worker may be sleeping its backoff
            primary = job.primary or job
            future = primary.future
            running = primary.attempts or (
                future is not None and (future.running() or future.done())
            )
            state = JobState.RUNNING if running else JobState.QUEUED
        return JobInfo(
            job.job_id,
            job.request.model,
            state,
            error=response and response.error,
            seconds=None if job.finished_at is None else job.finished_at - job.submitted_at,
            coalesced=job.primary is not None,
        )

    def jobs(self) -> list[JobInfo]:
        """Snapshots of every job still held, in submission order."""
        with self._lock:
            jobs = list(self._jobs.values())
        return [self._info(job) for job in jobs]

    def result(self, job_id: str, timeout: float | None = None) -> CompileResponse:
        """Block until the job finishes; returns its response.

        A failed job (past its deadline, too) returns its structured error
        payload; ``response.raise_for_status()`` raises it typed.  An
        expired ``timeout`` raises :class:`~repro.errors.DeadlineExceededError`
        (a ``TimeoutError``) with the job id and timeout in ``details``.  A
        forgotten job id is unknown (see :data:`REMEMBERED_JOBS`).
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
        """Cancel a QUEUED job, which then FAILED with a ``cancelled``
        error; returns whether it did.  RUNNING (retries included), finished
        and coalesced jobs cannot be cancelled: a compile with followers is
        theirs too."""
        job = self._get(job_id)
        # Future.cancel runs the done callback, which concludes the job,
        # inside this hold: no follower can attach in between
        with self._lock:
            if job.state != _IN_FLIGHT or job.followers or job.attempts or job.future is None:
                return False
            return job.future.cancel()

    def wait_all(self, timeout: float | None = None) -> list[CompileResponse]:
        """Block until every job still held finishes; responses in order."""
        with self._lock:
            jobs = list(self._jobs.values())
        return [self._result(job, timeout) for job in jobs]

    def shutdown(self, wait: bool = True) -> None:
        """Stop retrying (an attempt failing now concludes with its error),
        drain the jobs in flight with ``wait``, each at most until its
        deadline, then shut the pool down if the manager owns it."""
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
