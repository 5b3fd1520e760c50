"""A warm worker answers every request as a fresh one would.

A worker process lives across many jobs, so anything a job leaves behind
in a process global (an installed plan, a cache copy, a memo) could reach
the next job.  The property below serves pairs of requests in one warm
one-worker pool and compares each answer with the answer of a fresh pool
that serves it first, with the cache off, a private ``StageCache``, the
worker's process default cache, and one whose bound is below the
candidate set.
"""

from __future__ import annotations

import functools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import faults
from repro.core.api import WorkerPool
from repro.core.cache import StageCache
from repro.faults import FAULT_PLAN_ENV, SITE_WORKER_COMPILE, FaultPlan, FaultSpec
from repro.fuzz.oracle import strip_seconds
from repro.service import ArtifactStore, CompileResponse
from repro.service.jobs import _execute_job

#: an ``io_error`` at the worker's compile site for every LeNet request
LENET_IO_PLAN = FaultPlan(
    faults=(FaultSpec(site=SITE_WORKER_COMPILE, kind="io_error", match={"model": "LeNet"}),)
).to_json()

#: raw wire dicts, as a worker receives them
CANDIDATES = (
    {"model": "LeNet"},
    {"model": "LeNet", "duplication_degree": 4},
    {"model": "MLP-500-100"},
    {"model": "MLP-500-100", "duplication_degree": 16},
    {"model": "MLP-500-100", "duplication_degree": 2, "seed": 3},
    {"model": "LeNet", "use_cache": False},
    {"model": "MLP-500-100", "duplication_degree": 16, "use_cache": False},
    {"model": "LeNet", "num_chips": 2},
    {"model": "LeNet", "passes": ["synthesis", "mapping"]},
    {"model": "MLP-500-100", "run_pnr": True},
    {"model": "MLP-500-100", "pe_budget": 1},  # a compile that fails: capacity_error
    {"model": "LeNet", "duplication_degree": 0},  # rejected when decoded
    # a stored request of the time a plan travelled on the wire
    {"model": "MLP-500-100", "fault_plan": LENET_IO_PLAN},
)


@pytest.fixture(autouse=True)
def _no_fault_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)


def _answer(future, store=None) -> tuple:
    """What a worker's answer must keep: stripped summary, run id, error
    code.  With a ``store`` the worker saved the answer under its run id
    (the first save of an id wins: a repeat's volatile timings are not
    written again, so the stored answer equals this one up to them)."""
    try:
        data, run_id, emitted = future.result(timeout=120)
    except Exception as exc:  # noqa: BLE001 - an exception is an answer here
        return None, None, getattr(exc, "code", type(exc).__name__)
    response = CompileResponse.from_dict(data)
    assert not emitted
    if store is None:
        assert run_id is None
    else:
        assert run_id == ArtifactStore.run_id_for(response)
        store.load(run_id, verify=True)  # re-hashes to run_id
    return (
        strip_seconds(data["summary"]),
        ArtifactStore.run_id_for(response),
        response.error.code if response.error else None,
    )


def test_a_plan_in_a_request_outlives_nothing():
    """A stored request's ``fault_plan`` is dropped, never installed: the
    LeNet request after it compiles, and no injector is left behind."""
    carrier = {"model": "MLP-500-100", "fault_plan": LENET_IO_PLAN}
    first, _, _ = _execute_job(carrier, None, False)
    assert first["status"] == "ok"
    after, _, _ = _execute_job({"model": "LeNet"}, None, False)
    assert after["status"] == "ok", after["error"]
    assert faults.active_injector() is None


@pytest.fixture(scope="module")
def pools(tmp_path_factory):
    """The warm pool, its store, and the answer of a fresh pool to each
    candidate."""
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv(FAULT_PLAN_ENV, raising=False)  # no worker inherits a plan

        @functools.lru_cache(maxsize=None)
        def fresh(index: int) -> tuple:
            with WorkerPool(1) as pool:
                return _answer(pool.submit(_execute_job, CANDIDATES[index], None, StageCache()))

        caches = {
            "off": False,
            "memory": StageCache(),
            "default": None,
            "bounded": StageCache(max_entries=4),  # evicts within a few candidates
        }
        with WorkerPool(1) as warm:
            yield warm, ArtifactStore(tmp_path_factory.mktemp("store")), caches, fresh


@settings(max_examples=200)
@given(
    first=st.integers(0, len(CANDIDATES) - 1),
    second=st.integers(0, len(CANDIDATES) - 1),
    cache=st.sampled_from(("off", "memory", "default", "bounded")),
)
def test_a_warm_worker_answers_as_a_fresh_one(pools, first, second, cache):
    warm, store, caches, fresh = pools
    cache = caches[cache]
    for index in (first, second):
        answer = _answer(warm.submit(_execute_job, CANDIDATES[index], None, cache, store), store)
        assert answer == fresh(index), CANDIDATES[index]
