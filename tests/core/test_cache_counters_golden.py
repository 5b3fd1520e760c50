"""The per-compile cache counters, pinned over one fixed sequence.

A compile's ``CompileTimings`` counters (and so its run id, which hashes
every counter but ``cache_hits``/``cache_misses``) come from the tally
``PassManager.run`` keeps.  The expected rows below were recorded from
the implementation that still kept a second set of books on the cache
objects; they must not move when the cache's own counting changes.  The
rows that touch a shared tier were re-recorded when the mapping left that
tier: a mapping is neither looked up in it nor written to it, so each of
those compiles makes one shared lookup (two for a 2-chip one) fewer.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.cache import StageCache
from repro.core.shared_cache import SharedStageCache
from repro.faults import (
    FAULT_PLAN_ENV,
    SITE_SHARED_CACHE_PUT,
    FaultPlan,
    FaultSpec,
    active_injector,
)
from repro.service import ArtifactStore, CompileRequest, serve_request

#: step -> (cache_hits, cache_misses, evictions, shared_cache_hits,
#: shared_cache_misses, write_errors, run id)
EXPECTED = {
    "cold": (0, 4, 0, 0, 1, 0, "051fb7e03183fad7"),
    "memory hit": (2, 2, 0, 0, 0, 0, "8d2ffa0a9d1fde0b"),
    "shared hit in a process copy": (1, 3, 0, 1, 0, 0, "3e6e8cfd1df6d2f6"),
    # installing a shared-tier hit pushes entries out of a 1-entry memory
    # tier, but that is not an eviction of the compile; the mapping's own
    # put, pushing the installed synthesis entry out, is
    "shared hit at max_entries=1": (1, 3, 1, 1, 0, 0, "6f2cb8c09a4e273c"),
    "eviction at max_entries=1": (0, 4, 1, 0, 0, 0, "f4fe7183a8fc5d57"),
    # the plan is the environment's, so the run id is the plan-free request's
    "failed writes under io_error": (0, 4, 0, 0, 1, 1, "303a3884567543c6"),
    "2-chip cold": (0, 8, 0, 0, 2, 0, "329688cfbb61e622"),
    "2-chip shared hit": (2, 6, 0, 2, 0, 0, "1b4e72dff989f680"),
}


@pytest.fixture(autouse=True)
def _no_fault_plan(monkeypatch):
    monkeypatch.delenv(FAULT_PLAN_ENV, raising=False)
    assert active_injector() is None  # read unset, it drops a memoized plan


def _row(request, cache):
    response = serve_request(request, cache=cache).response
    assert response.ok, response.error
    t = response.timings
    return (
        t.cache_hits,
        t.cache_misses,
        t.evictions,
        t.shared_cache_hits,
        t.shared_cache_misses,
        t.write_errors,
        ArtifactStore.run_id_for(response),
    )


def test_counters_and_run_ids_match_the_recorded_sequence(tmp_path, monkeypatch):
    def tier(name):
        return SharedStageCache(str(tmp_path / name))

    request = CompileRequest(model="MLP-500-100", duplication_degree=2, seed=0)
    cache = StageCache(shared=tier("shared"))
    plan = FaultPlan(
        faults=(FaultSpec(site=SITE_SHARED_CACHE_PUT, kind="io_error", times=5),)
    ).to_json()
    chips = CompileRequest(model="LeNet", num_chips=2, seed=0)
    chips_cache = StageCache(shared=tier("chips"))

    observed = {
        "cold": _row(request, cache),
        "memory hit": _row(request, cache),
        "shared hit in a process copy": _row(request, pickle.loads(pickle.dumps(cache))),
        "shared hit at max_entries=1": _row(
            request, StageCache(max_entries=1, shared=tier("shared"))
        ),
        "eviction at max_entries=1": _row(request, StageCache(max_entries=1)),
    }
    monkeypatch.setenv(FAULT_PLAN_ENV, plan)
    observed["failed writes under io_error"] = _row(request, StageCache(shared=tier("faulty")))
    monkeypatch.delenv(FAULT_PLAN_ENV)
    observed["2-chip cold"] = _row(chips, chips_cache)
    observed["2-chip shared hit"] = _row(chips, pickle.loads(pickle.dumps(chips_cache)))
    assert observed == EXPECTED
