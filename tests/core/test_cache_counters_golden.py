"""The per-compile cache counters and run ids, pinned over one fixed sequence.

A compile's ``CompileTimings`` counters come from the tally
``PassManager.run`` keeps.  The expected rows below were recorded from
the implementation that still kept a second set of books on the cache
objects; they must not move when the cache's own counting changes.  The
rows over a shared tier were re-recorded twice as stages left that tier:
first the mapping, then synthesis and partition.  Now only a P&R result
is looked up in it or written to it, so a compile without P&R makes no
shared lookup at all, and the ``pnr`` rows pin a shared miss, a shared
hit and a failed write.

The counters and a P&R summary's stage seconds are volatile
(``WireRecord.volatile``), so every row of one request has one run id,
whatever the cache held.
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
    "cold": (0, 4, 0, 0, 0, 0, "8d2ffa0a9d1fde0b"),
    "memory hit": (2, 2, 0, 0, 0, 0, "8d2ffa0a9d1fde0b"),
    # a process copy arrives with empty memory, and without P&R the
    # tier it carries is never asked: a cold compile again
    "process copy": (0, 4, 0, 0, 0, 0, "8d2ffa0a9d1fde0b"),
    "eviction at max_entries=1": (0, 4, 1, 0, 0, 0, "8d2ffa0a9d1fde0b"),
    "2-chip cold": (0, 8, 0, 0, 0, 0, "5166a4adbceaaa50"),
    "2-chip process copy": (0, 8, 0, 0, 0, 0, "5166a4adbceaaa50"),
    "pnr cold": (0, 5, 0, 0, 1, 0, "61a5c4f34a2c6f47"),
    "pnr shared hit in a process copy": (1, 4, 0, 1, 0, 0, "61a5c4f34a2c6f47"),
    # installing the shared-tier hit pushes the mapping out of a 1-entry
    # memory tier, but that is not an eviction of the compile; the
    # mapping's own put, pushing the synthesis entry out, is
    "pnr shared hit at max_entries=1": (1, 4, 1, 1, 0, 0, "61a5c4f34a2c6f47"),
    # the plan is the environment's, so the run id is the plan-free request's
    "pnr failed write under io_error": (0, 5, 0, 0, 1, 1, "61a5c4f34a2c6f47"),
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

    pnr = CompileRequest(model="MLP-500-100", seed=0, run_pnr=True)
    pnr_cache = StageCache(shared=tier("pnr"))

    observed = {
        "cold": _row(request, cache),
        "memory hit": _row(request, cache),
        "process copy": _row(request, pickle.loads(pickle.dumps(cache))),
        "eviction at max_entries=1": _row(request, StageCache(max_entries=1)),
        "2-chip cold": _row(chips, chips_cache),
        "2-chip process copy": _row(chips, pickle.loads(pickle.dumps(chips_cache))),
        "pnr cold": _row(pnr, pnr_cache),
        "pnr shared hit in a process copy": _row(
            pnr, pickle.loads(pickle.dumps(pnr_cache))
        ),
        "pnr shared hit at max_entries=1": _row(
            pnr, StageCache(max_entries=1, shared=tier("pnr"))
        ),
    }
    monkeypatch.setenv(FAULT_PLAN_ENV, plan)
    observed["pnr failed write under io_error"] = _row(pnr, StageCache(shared=tier("faulty")))
    monkeypatch.delenv(FAULT_PLAN_ENV)
    assert observed == EXPECTED
