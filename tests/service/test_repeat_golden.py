"""Golden pins of what a repeated request answers and where it is stored.

The literals were recorded at commit 1e4fa78 (the parent of the change that
made a repeat request a chain of look-ups) and this file uses only names
that exist on both sides, so it passes unmodified before and after: the
shared zoo graph, the memoized operation count and the store's no-op repeat
save change what a hit costs, never what it returns.
"""

import hashlib
import json

import pytest

from repro.core.cache import StageCache
from repro.core.dedup import clear_default_dedup_store
from repro.fuzz.oracle import strip_seconds
from repro.service import ArtifactStore, CompileRequest, FPSAClient

#: the corners of the ``serve_mixed`` catalogue:
#: (model, duplication) -> (summary digest, run id of the first serve, run id
#: of every repeat).  The two ids differ because the dedup counters of the
#: first compile are part of the content address and a stage-cache hit has
#: none.
CORNERS = {
    ("MLP-500-100", 1): ("227b8fe53085eabf", "f5a12e3f460bd983", "8c8f76d22a329405"),
    ("GoogLeNet", 8): ("79c62e72bf707eb0", "2632523aefc4c33e", "6182cbaf3ee2236e"),
    ("ResNet152", 64): ("d640269975872080", "76b264dfa6e0c3e0", "007f905995045afe"),
}


def summary_digest(response) -> str:
    payload = json.dumps(
        strip_seconds(response.summary.to_dict()), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("model, duplication", sorted(CORNERS))
def test_three_serves_answer_and_store_the_same(tmp_path, monkeypatch, model, duplication):
    digest, first_id, repeat_id = CORNERS[model, duplication]
    # the cache-tier counters are part of the content address: start every
    # tier from empty
    monkeypatch.delenv("REPRO_SHARED_CACHE", raising=False)
    monkeypatch.delenv("REPRO_DEDUP_STORE", raising=False)
    clear_default_dedup_store()
    store = ArtifactStore(tmp_path)
    client = FPSAClient(cache=StageCache(), store=store)
    request = CompileRequest(model=model, duplication_degree=duplication, dedup=True)
    responses = [client.compile(request) for _ in range(3)]
    assert [summary_digest(r) for r in responses] == [digest] * 3
    assert responses[0].summary == responses[1].summary == responses[2].summary
    assert [store.run_id_for(r) for r in responses] == [first_id, repeat_id, repeat_id]
    assert sorted(record.run_id for record in store.list_runs()) == sorted(
        {first_id, repeat_id}
    )
    for run_id in (first_id, repeat_id):
        assert store.load(run_id, verify=True).summary == responses[0].summary
