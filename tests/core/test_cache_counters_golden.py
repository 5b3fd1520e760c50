"""The per-compile cache counters and run ids, pinned over one fixed sequence.

A compile's ``CompileTimings`` counters come from the tally
``PassManager.run`` keeps.  The expected rows below were recorded from
the implementation that still kept a second set of books on the cache
objects; they must not move when the cache's own counting changes.  The
stage cache is per-process memory now, so the ``shared_cache_*`` and
``write_errors`` columns are 0 on every row: they are wire fields older
runs still carry.  The ``pnr`` rows were re-recorded when the disk tier
left the compile path: a process copy of a cache is a cold compile again.

The counters and a P&R summary's stage seconds are volatile
(``WireRecord.volatile``), so every row of one request has one run id,
whatever the cache held.
"""

from __future__ import annotations

import pickle

import pytest

from repro.core.cache import StageCache
from repro.faults import FAULT_PLAN_ENV, active_injector
from repro.service import ArtifactStore, CompileRequest, serve_request

#: step -> (cache_hits, cache_misses, evictions, shared_cache_hits,
#: shared_cache_misses, write_errors, run id)
EXPECTED = {
    "cold": (0, 4, 0, 0, 0, 0, "8d2ffa0a9d1fde0b"),
    "memory hit": (2, 2, 0, 0, 0, 0, "8d2ffa0a9d1fde0b"),
    # a process copy arrives with empty memory: a cold compile again
    "process copy": (0, 4, 0, 0, 0, 0, "8d2ffa0a9d1fde0b"),
    "eviction at max_entries=1": (0, 4, 1, 0, 0, 0, "8d2ffa0a9d1fde0b"),
    "2-chip cold": (0, 8, 0, 0, 0, 0, "5166a4adbceaaa50"),
    "2-chip process copy": (0, 8, 0, 0, 0, 0, "5166a4adbceaaa50"),
    "pnr cold": (0, 5, 0, 0, 0, 0, "61a5c4f34a2c6f47"),
    "pnr memory hit": (3, 2, 0, 0, 0, 0, "61a5c4f34a2c6f47"),
    "pnr process copy": (0, 5, 0, 0, 0, 0, "61a5c4f34a2c6f47"),
    "pnr at max_entries=1": (0, 5, 2, 0, 0, 0, "61a5c4f34a2c6f47"),
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


def test_counters_and_run_ids_match_the_recorded_sequence():
    request = CompileRequest(model="MLP-500-100", duplication_degree=2, seed=0)
    cache = StageCache()
    chips = CompileRequest(model="LeNet", num_chips=2, seed=0)
    chips_cache = StageCache()
    pnr = CompileRequest(model="MLP-500-100", seed=0, run_pnr=True)
    pnr_cache = StageCache()

    observed = {
        "cold": _row(request, cache),
        "memory hit": _row(request, cache),
        "process copy": _row(request, pickle.loads(pickle.dumps(cache))),
        "eviction at max_entries=1": _row(request, StageCache(max_entries=1)),
        "2-chip cold": _row(chips, chips_cache),
        "2-chip process copy": _row(chips, pickle.loads(pickle.dumps(chips_cache))),
        "pnr cold": _row(pnr, pnr_cache),
        "pnr memory hit": _row(pnr, pnr_cache),
        "pnr process copy": _row(pnr, pickle.loads(pickle.dumps(pnr_cache))),
        "pnr at max_entries=1": _row(pnr, StageCache(max_entries=1)),
    }
    assert observed == EXPECTED
