"""The job lifecycle under a stateful model.

hypothesis drives a ``JobManager`` through submissions (by id and through
``serve_batch``), worker outcomes, a fake clock, pool refusals and heals,
reads, cancels and shutdown.  The pool is a ``WorkerPool`` whose executors
hand out futures the model completes with a worker's return (a canned
wire dict, no run id, whether a bitstream was emitted), so nothing
compiles.  A reference model predicts every answer; after each step the
manager must agree with it and keep the lifecycle's invariants:

* each submitter gets exactly one answer, under its own request, and the
  first one published is the one it keeps;
* no unanswered or compiling job is forgotten, and the ids held are
  exactly those plus the last ``REMEMBERED_JOBS`` published;
* ``submitted == completed + failed + unanswered``, every counter as the
  model counts it;
* the admission slots taken equal the compiles in flight, and the futures
  the pool has not finished;
* after ``shutdown`` every job is answered, so no waiter blocks.

It runs with ``REMEMBERED_JOBS`` = 2, so ids are forgotten and repeats
evicted within a few steps.  ``HYPOTHESIS_PROFILE=deep`` runs it longer.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import re
from concurrent.futures import BrokenExecutor, Future
from pathlib import Path

import pytest
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.core.api import WorkerPool
from repro.errors import DeadlineExceededError, InvalidRequestError, OverloadedError
from repro.service import CompileRequest, CompileResponse, ErrorPayload, JobManager, JobState
from repro.service import jobs as jobs_module
from repro.service.client import serve_request

REMEMBERED = 2
MAX_QUEUE_DEPTH = 3

#: how far the fake clock moves in one step (deadlines are 1 or 3 s)
seconds = st.sampled_from([0.0, 0.5, 1.0, 2.5])
#: the serving fields, which a fingerprint leaves out
deadlines = st.sampled_from([None, None, 1.0, 3.0])
tag_sets = st.sampled_from([{}, {"who": "b"}])
#: six fingerprints (seed, use_cache), two budgets
requests = st.builds(
    CompileRequest,
    model=st.just("MLP-500-100"),
    seed=st.integers(0, 2),
    use_cache=st.sampled_from([True, True, False]),
    deadline_s=deadlines,
    max_retries=st.sampled_from([None, None, 1]),
    tags=tag_sets,
)


@functools.lru_cache(maxsize=None)
def _canned() -> dict[str, dict]:
    """The wire dicts the fake workers answer with, made once."""
    request = CompileRequest(model="MLP-500-100")
    error = ErrorPayload(code="capacity_error", type="CapacityError", message="no room")
    return {
        "ok": serve_request(request, cache=False).response.to_dict(),
        "capacity_error": CompileResponse(request=request, status="error", error=error).to_dict(),
    }


class FakeExecutor:
    """One generation of the fake pool: pending futures the model finishes."""

    def __init__(self, pool: "FakePool"):
        self.pool = pool
        self.closed = False

    def submit(self, fn, *args):
        if self.closed:
            raise RuntimeError("cannot schedule new futures after shutdown")
        if self.pool.refusals:
            raise self.pool.refusals.pop(0)
        future = Future()
        self.pool.attempts.append(future)
        return future

    def shutdown(self, wait=True):
        self.closed = True


class FakePool(WorkerPool):
    """A ``WorkerPool`` (it heals as the real one does) of fake executors."""

    def __init__(self, max_workers=None):
        #: every attempt handed to any generation, in order.
        self.attempts: list[Future] = []
        #: exceptions the next submissions raise, first first.
        self.refusals: list[BaseException] = []
        super().__init__(1)

    def _build_executor(self):
        return FakeExecutor(self)


@dataclasses.dataclass(eq=False)
class Compile:
    """A compile as the model sees it: its primary first, then followers."""

    fingerprint: str
    members: list["Sub"]
    future: Future
    budget: int
    attempts: int = 0
    started: bool = False

    @property
    def primary(self) -> "Sub":
        return self.members[0]


@dataclasses.dataclass(eq=False)
class Sub:
    """One accepted submission: the model's view and the manager's job."""

    request: CompileRequest
    job: object
    deadline_at: float | None
    compile: Compile | None
    #: the code of the answer the model expects ("ok" or an error code).
    expect: str | None = None
    #: the first answer observed: every later one must be this object.
    seen: CompileResponse | None = None


def _code(response: CompileResponse) -> str:
    return "ok" if response.ok else response.error.code


class LifecycleModel(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.now = 1000.0
        self.manager = JobManager(max_queue_depth=MAX_QUEUE_DEPTH)
        self.manager._clock = lambda: self.now
        self.pool = self.manager.pool
        assert isinstance(self.pool, FakePool)
        self.made: list[object] = []  # every job ``_submit`` returned
        submit = self.manager._submit

        def recording_submit(request):
            job = submit(request)
            self.made.append(job)
            return job

        self.manager._submit = recording_submit
        self.subs: list[Sub] = []
        self.compiling: dict[str, Compile] = {}
        self.remembered: collections.OrderedDict[str, None] = collections.OrderedDict()
        self.published: collections.deque[Sub] = collections.deque()
        self.stats = dict.fromkeys(dataclasses.asdict(self.manager.stats), 0)
        self.closing = False

    # -- the reference model -------------------------------------------

    def _answer(self, sub: Sub, code: str) -> None:
        if sub.deadline_at is not None and self.now >= sub.deadline_at:
            code = "deadline_exceeded"
            self.stats["deadline_expired"] += 1
        sub.expect = code
        self.stats["completed" if code == "ok" else "failed"] += 1
        if not self._compiles(sub):
            self.published.append(sub)  # else held until its compile ends

    def _conclude(self, compile_: Compile, code: str, remember: bool = True) -> None:
        del self.compiling[compile_.fingerprint]
        for sub in compile_.members:
            if sub.expect is None:
                self._answer(sub, code)
            elif sub is compile_.primary:
                self.published.append(sub)  # answered at its deadline
        if code == "ok" and remember and compile_.primary.request.use_cache:
            self.remembered[compile_.fingerprint] = None
            if len(self.remembered) > REMEMBERED:
                self.remembered.popitem(last=False)

    def _predict_submit(self, request: CompileRequest) -> str:
        """What ``submit`` does with ``request``: repeat, attach, fresh, or
        the exception it raises."""
        fingerprint = request.fingerprint()
        if fingerprint in self.remembered:
            return "repeat"
        if fingerprint in self.compiling:
            return "attach"
        if len(self.compiling) >= MAX_QUEUE_DEPTH:
            return "OverloadedError"
        if self.closing:  # a pool shut down stays shut
            return "RuntimeError"
        refusals = self.pool.refusals
        if refusals and isinstance(refusals[0], BrokenExecutor):
            # healed and tried once more on a fresh executor
            return type(refusals[1]).__name__ if len(refusals) > 1 else "fresh"
        return type(refusals[0]).__name__ if refusals else "fresh"

    def _compiles(self, sub: Sub) -> bool:
        """Whether ``sub`` is the primary of a compile in flight."""
        compile_ = sub.compile
        return (
            compile_ is not None
            and compile_.primary is sub
            and self.compiling.get(compile_.fingerprint) is compile_
        )

    def _submitted(self, request: CompileRequest, kind: str) -> Sub:
        """Mirror an accepted submission; its job and future are bound by
        :meth:`_bind` once the manager's call returns."""
        fingerprint = request.fingerprint()
        deadline_at = None if request.deadline_s is None else self.now + request.deadline_s
        self.stats["submitted"] += 1
        if kind == "repeat":
            self.stats["coalesced"] += 1
            self.remembered.move_to_end(fingerprint)
            sub = Sub(request, None, deadline_at, None)
            self._answer(sub, "ok")
        elif kind == "attach":
            self.stats["coalesced"] += 1
            compile_ = self.compiling[fingerprint]
            sub = Sub(request, None, deadline_at, compile_)
            compile_.members.append(sub)
        else:
            budget = request.max_retries
            if budget is None:
                budget = jobs_module.DEFAULT_MAX_RETRIES
            compile_ = Compile(fingerprint, [], None, budget)
            sub = Sub(request, None, deadline_at, compile_)
            compile_.members.append(sub)
            self.compiling[fingerprint] = compile_
        self.subs.append(sub)
        return sub

    def _bind(self, subs: list[Sub], made: int, attempts: int) -> None:
        """Bind the jobs ``_submit`` made and the attempts the pool took
        since the marks ``made`` and ``attempts`` to the mirrored ``subs``."""
        for sub, job in zip(subs, self.made[made:], strict=True):
            sub.job = job
        fresh = [sub.compile for sub in subs if self._compiles(sub)]
        for compile_, future in zip(fresh, self.pool.attempts[attempts:], strict=True):
            compile_.future = future

    def _submit(self, request: CompileRequest) -> None:
        kind = self._predict_submit(request)
        made, attempts = len(self.made), len(self.pool.attempts)
        try:
            self.manager.submit(request)
        except (OverloadedError, RuntimeError, BrokenExecutor) as exc:
            assert type(exc).__name__ == kind, (kind, exc)
            self.stats["rejected"] += kind == "OverloadedError"
            assert len(self.made) == made
            return
        finally:
            self.pool.refusals.clear()
        assert kind in ("repeat", "attach", "fresh"), kind
        self._bind([self._submitted(request, kind)], made, attempts)

    def _held(self) -> set[str]:
        """The ids the manager must hold: unanswered and compiling jobs and
        the last REMEMBERED published."""
        held = {sub.job.job_id for sub in self.subs if sub.expect is None or self._compiles(sub)}
        return held | {sub.job.job_id for sub in list(self.published)[-REMEMBERED:]}

    def _observe(self, sub: Sub) -> None:
        """An observer or a zero-timeout waiter reads ``sub``: past its
        deadline, unanswered, it is answered with the expiry."""
        if sub.expect is None and sub.deadline_at is not None and self.now >= sub.deadline_at:
            self._answer(sub, "deadline_exceeded")

    def _check_answer(self, sub: Sub, response: CompileResponse) -> None:
        assert sub.expect is not None and _code(response) == sub.expect, (sub.expect, response)
        assert response.request == sub.request
        if sub.seen is None:
            sub.seen = response
        assert response is sub.seen  # the first answer published is kept

    def _worker_ends(self, compile_: Compile, outcome: str) -> None:
        future = compile_.future
        if outcome in ("ok", "ok, bitstream", "capacity_error"):
            # a worker's return: the wire dict, no run id (no store), and
            # whether it emitted a bitstream, which no repeat may share
            code = outcome.split(",")[0]
            future.set_result((_canned()[code], None, code != outcome))
            self._conclude(compile_, code, remember=code == outcome)
            return
        attempts = len(self.pool.attempts)
        if outcome == "worker_crash":
            self.stats["displaced"] += 1
            future.set_exception(BrokenExecutor("a worker died"))
        else:
            future.set_exception(OSError("flaky disk"))
        waiting = any(
            sub.expect is None and (sub.deadline_at is None or self.now < sub.deadline_at)
            for sub in compile_.members
        )
        if not self.closing and compile_.attempts < compile_.budget and waiting:
            assert len(self.pool.attempts) == attempts + 1, "the retry was not resubmitted"
            compile_.attempts += 1
            compile_.future = self.pool.attempts[-1]
            compile_.started = False
            self.stats["retried"] += 1
        else:
            self._conclude(compile_, outcome)

    # -- rules -----------------------------------------------------------

    def _identical(self, data) -> CompileRequest:
        """A request identical to one made before, but for its serving
        fields: to a compiling or remembered one, if there is one."""
        live = [
            sub for sub in self.subs
            if sub.request.fingerprint() in self.compiling.keys() | self.remembered.keys()
        ]
        twin = data.draw(st.sampled_from(live or self.subs)).request
        # a twin often outlasts the deadline of the job it follows
        deadline_s = data.draw(st.sampled_from([None, None, 3.0]))
        return dataclasses.replace(twin, deadline_s=deadline_s, tags=data.draw(tag_sets))

    @rule(request=requests)
    def submit(self, request):
        self._submit(request)

    @precondition(lambda self: self.subs)
    @rule(data=st.data())
    def submit_identical(self, data):
        self._submit(self._identical(data))

    @rule(request=requests, deadline_s=st.sampled_from([1.0, 3.0]))
    def submit_with_a_deadline(self, request, deadline_s):
        self._submit(dataclasses.replace(request, deadline_s=deadline_s))

    @rule(
        request=requests,
        refusals=st.sampled_from([("runtime",), ("broken",), ("broken", "broken")]),
    )
    def submit_to_a_pool_that_refuses(self, request, refusals):
        self.pool.refusals[:] = [
            BrokenExecutor("pool broke") if kind == "broken" else RuntimeError("pool is closed")
            for kind in refusals
        ]
        self._submit(request)

    @precondition(lambda self: self.compiling)
    @rule(
        data=st.data(),
        outcome=st.sampled_from(["ok", "ok", "ok, bitstream", "capacity_error"]),
        after=seconds,
    )
    def worker_finishes(self, data, outcome, after):
        self.now += after
        self._worker_ends(data.draw(st.sampled_from(list(self.compiling.values()))), outcome)

    @precondition(lambda self: self.compiling)
    @rule(data=st.data(), outcome=st.sampled_from(["worker_crash", "transient_io"]), after=seconds)
    def worker_fails_retriably(self, data, outcome, after):
        self.now += after
        self._worker_ends(data.draw(st.sampled_from(list(self.compiling.values()))), outcome)

    @precondition(lambda self: any(not c.started for c in self.compiling.values()))
    @rule(data=st.data())
    def worker_starts_and_hangs(self, data):
        compile_ = data.draw(
            st.sampled_from([c for c in self.compiling.values() if not c.started])
        )
        assert compile_.future.set_running_or_notify_cancel()
        compile_.started = True

    @rule(seconds=seconds)
    def advance_the_clock(self, seconds):
        self.now += seconds

    @precondition(lambda self: not self.closing)
    @rule()
    def heal(self):
        self.pool.heal(self.pool.generation)

    @rule(data=st.data(), size=st.integers(1, 5))
    def serve(self, data, size):
        batch = [  # mostly repeats and followers
            self._identical(data) if self.subs and data.draw(st.integers(0, 3)) else data.draw(requests)
            for _ in range(size)
        ]
        expected: list[Sub] = []
        raised = None
        made, attempts = len(self.made), len(self.pool.attempts)
        for request in batch:  # serve_batch submits them all first
            kind = self._predict_submit(request)
            if kind not in ("repeat", "attach", "fresh"):
                raised = kind
                break
            expected.append(self._submitted(request, kind))
        try:
            responses = self.manager.serve_batch(batch, timeout=0)
        except (OverloadedError, RuntimeError, BrokenExecutor, DeadlineExceededError) as exc:
            responses, error = None, exc
        else:
            error = None
        self._bind(expected, made, attempts)
        if raised is not None:
            assert type(error).__name__ == raised, (raised, error)
            self.stats["rejected"] += raised == "OverloadedError"
            return
        # every job is submitted, then each is read with no time to wait
        for sub in expected:
            self._observe(sub)
            if sub.expect is None:  # the first job unanswered times the batch out
                assert isinstance(error, DeadlineExceededError), error
                assert error.details["job_id"] == sub.job.job_id
                return
        assert error is None, error
        for sub, response in zip(expected, responses, strict=True):
            self._check_answer(sub, response)

    @precondition(lambda self: self.subs)
    @rule(data=st.data())
    def result(self, data):
        sub = data.draw(st.sampled_from(self.subs))
        if sub.job.job_id not in self._held():
            with pytest.raises(InvalidRequestError):
                self.manager.result(sub.job.job_id, timeout=0)
            return
        self._observe(sub)
        if sub.expect is None:
            with pytest.raises(DeadlineExceededError):
                self.manager.result(sub.job.job_id, timeout=0)
        else:
            self._check_answer(sub, self.manager.result(sub.job.job_id, timeout=0))

    @precondition(lambda self: self.subs)
    @rule(data=st.data())
    def status(self, data):
        sub = data.draw(st.sampled_from(self.subs))
        if sub.job.job_id not in self._held():
            with pytest.raises(InvalidRequestError):
                self.manager.status(sub.job.job_id)
            return
        self._observe(sub)
        info = self.manager.status(sub.job.job_id)
        assert info.coalesced == (sub.compile is None or sub.compile.primary is not sub)
        if sub.expect is not None:
            assert info.state == (JobState.DONE if sub.expect == "ok" else JobState.FAILED)
            assert (info.error is None) == (sub.expect == "ok")
        else:
            compile_ = sub.compile
            running = compile_.attempts or compile_.started
            assert info.state == (JobState.RUNNING if running else JobState.QUEUED)

    @rule()
    def list_jobs(self):
        held = [sub for sub in self.subs if sub.job.job_id in self._held()]
        for sub in held:
            self._observe(sub)
        infos = self.manager.jobs()
        assert [info.job_id for info in infos] == [sub.job.job_id for sub in held]

    @precondition(lambda self: self.subs)
    @rule(data=st.data())
    def cancel(self, data):
        sub = data.draw(st.sampled_from(self.subs))
        if sub.job.job_id not in self._held():
            with pytest.raises(InvalidRequestError):
                self.manager.cancel(sub.job.job_id)
            return
        compile_ = sub.compile
        cancellable = (
            sub.expect is None
            and compile_ is not None
            and compile_.primary is sub
            and len(compile_.members) == 1
            and not compile_.attempts
            and not compile_.started
        )
        assert self.manager.cancel(sub.job.job_id) == cancellable
        if cancellable:
            self._conclude(compile_, "cancelled")

    @precondition(lambda self: len(self.subs) >= 4)  # a few jobs first
    @rule(outcomes=st.lists(st.sampled_from(["ok", "worker_crash"]), min_size=1, max_size=3))
    def shutdown(self, outcomes):
        self.manager.shutdown(wait=False)
        self.closing = True
        # the workers finish what they hold; a failure is no longer retried
        for k, compile_ in enumerate(list(self.compiling.values())):
            self._worker_ends(compile_, outcomes[k % len(outcomes)])
        self.manager.shutdown(wait=True)

    # -- invariants --------------------------------------------------------

    @invariant()
    def every_job_agrees_with_the_model(self):
        for sub in self.subs:
            job = sub.job
            if sub.expect is None:
                assert job.response is None, (sub.request, job.response)
                assert job.state in jobs_module._WAITING
            else:
                assert job.response is not None, (sub.expect, job.state)
                self._check_answer(sub, job.response)

    @invariant()
    def the_counts_balance(self):
        stats = dataclasses.asdict(self.manager.stats)
        assert stats == self.stats
        unanswered = sum(sub.expect is None for sub in self.subs)
        assert stats["submitted"] == stats["completed"] + stats["failed"] + unanswered

    @invariant()
    def the_held_ids_are_the_live_and_the_last_published(self):
        assert set(self.manager._jobs) == self._held()

    @invariant()
    def a_slot_is_a_compile_in_flight(self):
        in_flight = sum(not future.done() for future in self.pool.attempts)
        assert self.manager._active == len(self.compiling) == in_flight

    @invariant()
    def after_shutdown_no_waiter_blocks(self):
        if self.closing:
            assert all(sub.expect is not None for sub in self.subs)
            assert len(self.manager.wait_all(timeout=0)) == len(self._held())

    @invariant()
    def repeats_are_answered_from_the_remembered_compiles(self):
        shared = self.manager._shared
        compiling = {fp for fp, job in shared.items() if job.state in jobs_module._COMPILING}
        assert compiling == set(self.compiling)
        assert [fp for fp in shared if fp not in compiling] == list(self.remembered)


def test_the_lifecycle_model(monkeypatch):
    monkeypatch.setattr(jobs_module, "REMEMBERED_JOBS", REMEMBERED)
    monkeypatch.setattr(jobs_module, "WorkerPool", FakePool)
    run_state_machine_as_test(LifecycleModel)


def test_architecture_prints_the_lifecycle_table():
    text = (Path(__file__).parents[2] / "ARCHITECTURE.md").read_text()
    section = text.split("### Job lifecycle", 1)[1].split("\n#", 1)[0]
    rows = re.findall(r"^\| *(.+?) *\| *`(\w+)` *\| *(.+?) *\|", section, flags=re.M)
    table = {(None if state == "—" else state, event): new for state, event, new in rows}
    assert table == jobs_module._LIFECYCLE
