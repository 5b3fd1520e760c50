"""Golden pins of what a repeated request answers and where it is stored.

The literals were recorded at commit 1e4fa78.  The first serve of a point
and every repeat hash to one run id: the cache counters are volatile
(``WireRecord.volatile``), outside the content address.  Through a
``ServingRuntime`` an identical repeat is answered with its first
compile's response, so it too keeps one id (``test_repeat_path.py``).
"""

import hashlib
import json

import pytest

from repro.core.cache import StageCache
from repro.fuzz.oracle import strip_seconds
from repro.service import ArtifactStore, CompileRequest, FPSAClient

#: the corners of the ``serve_mixed`` catalogue:
#: (model, duplication) -> (summary digest, run id).
CORNERS = {
    ("MLP-500-100", 1): ("227b8fe53085eabf", "8c8f76d22a329405"),
    ("GoogLeNet", 8): ("79c62e72bf707eb0", "6182cbaf3ee2236e"),
    ("ResNet152", 64): ("d640269975872080", "007f905995045afe"),
}


def summary_digest(response) -> str:
    payload = json.dumps(
        strip_seconds(response.summary.to_dict()), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]


@pytest.mark.parametrize("model, duplication", sorted(CORNERS))
def test_three_serves_answer_and_store_the_same(tmp_path, model, duplication):
    digest, run_id = CORNERS[model, duplication]
    store = ArtifactStore(tmp_path)
    client = FPSAClient(cache=StageCache(), store=store)
    request = CompileRequest(model=model, duplication_degree=duplication, dedup=True)
    responses = [client.compile(request) for _ in range(3)]
    assert [summary_digest(r) for r in responses] == [digest] * 3
    assert responses[0].summary == responses[1].summary == responses[2].summary
    assert [store.run_id_for(r) for r in responses] == [run_id] * 3
    assert [record.run_id for record in store.list_runs()] == [run_id]
    assert store.load(run_id, verify=True).summary == responses[0].summary
