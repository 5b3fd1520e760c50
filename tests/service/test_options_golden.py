"""Golden pins of every content address a compile knob feeds.

The literals were recorded at commit 0698087 (the parent of the change that
made ``CompileOptions`` the one knob table) and this file uses only names
that exist on both sides, so it passes unmodified before and after: stored
run ids, coalescing keys and stage-/shared-cache entries stay valid.
"""

from repro.core.compiler import FPSACompiler
from repro.core.pipeline import CompileContext, CompileOptions
from repro.mapper.passes import MappingPass
from repro.models import build_model
from repro.partition.passes import PartitionPass
from repro.pnr.passes import PnRPass
from repro.service import CompileRequest
from repro.synthesizer.passes import SynthesisPass

DEFAULT = "76999dd8d0c44cf87b1c186ee203ef4693cd8b504cd9a22b30862b3dff1aa1c9"

DEFAULT_JSON = (
    '{"deadline_s": null, "dedup": false, "detailed_schedule": false, '
    '"duplication_degree": 1, "emit_bitstream": false, "fault_plan": null, '
    '"max_retries": null, "max_schedule_reuse": null, "model": "LeNet", '
    '"num_chips": null, "passes": null, "pe_budget": null, '
    '"pnr_channel_width": null, "pnr_jobs": null, "pnr_seed": 0, '
    '"run_pnr": false, "schema_version": 1, "seed": null, "shard_jobs": null, '
    '"synthesis_options": null, "tags": {}, "use_cache": true, "verify": false}'
)


class TestRequestFingerprints:
    def test_default_request(self):
        request = CompileRequest(model="LeNet")
        assert request.fingerprint() == DEFAULT
        assert request.to_json() == DEFAULT_JSON
        assert CompileRequest.from_json(DEFAULT_JSON) == request

    def test_every_semantic_knob_set(self):
        request = CompileRequest(
            model="LeNet",
            duplication_degree=4,
            pe_budget=200,
            detailed_schedule=True,
            run_pnr=True,
            emit_bitstream=True,
            max_schedule_reuse=3,
            pnr_channel_width=16,
            pnr_seed=5,
            seed=7,
            num_chips=2,
            synthesis_options={"lower_pooling": False},
        )
        assert request.fingerprint() == (
            "484c2f734ba9370402c2d3d7d3981066491a2ab155d39c85936311aacbfd7925"
        )

    def test_explicit_pass_list(self):
        request = CompileRequest(model="LeNet", passes=("synthesis", "mapping"))
        assert request.fingerprint() == (
            "9a32b5aa682aefe60e56f75b57768bc487c6f458138a65c00a62c5851a0d083b"
        )

    def test_unfingerprinted_fields_leave_the_default_literal(self):
        request = CompileRequest(
            model="LeNet",
            pnr_jobs=4,
            verify=True,
            dedup=True,
            deadline_s=2.5,
            max_retries=3,
            tags={"a": "b"},
        )
        assert request.fingerprint() == DEFAULT

    def test_shard_jobs_and_use_cache_are_fingerprinted(self):
        # neither changes an artifact, yet both move the fingerprint: run
        # ids stored before the knob roles existed depend on it
        assert CompileRequest(model="LeNet", shard_jobs=2).fingerprint() == (
            "aee0213a91f2ea9b32059658e9a82879a3ca5a2d4e908df54f59946471bf7933"
        )
        assert CompileRequest(model="LeNet", use_cache=False).fingerprint() == (
            "82706778f53f81cfc81206c89abe25781ce68bec7788a4d3998a15c30c7dde0e"
        )

    def test_pnr_request(self):
        request = CompileRequest(model="LeNet", run_pnr=True, seed=0)
        assert request.fingerprint() == (
            "8e4429be869e132f27564461efae0c10658a17bf79b2d928d10c346de1ff7c36"
        )


def test_stage_cache_keys_of_lenet_seed_0():
    compiler = FPSACompiler(cache=False)
    graph = build_model("LeNet")
    front = compiler.compile(graph, passes=("synthesis", "mapping"))
    ctx = CompileContext(
        graph=graph,
        config=compiler.config,
        options=CompileOptions(run_pnr=True, seed=0),
        synthesis_options=compiler.synthesis_options,
    )
    ctx.coreops = front.coreops
    ctx.mapping = front.mapping
    # partition, mapping and pnr hash the FPSAConfig: re-recorded when it
    # lost its unread mean_route_segments field
    assert {
        p.name: p().cache_key(ctx)
        for p in (SynthesisPass, PartitionPass, MappingPass, PnRPass)
    } == {
        "synthesis": "d8694d17ae545539886bcc05db55e5ace9fe13c0882d764cf85d3d3afeb4ac8b",
        "partition": "95eeef0ce34238badfe43d4bcf30d8b66990cfee84eb5aaefcb341ff82d9051e",
        "mapping": "b7e5cb98acbae4f55359917a08e3d50cd6a53104520c21aa968d5acab3a4520c",  # mapping-v3
        "pnr": "2b3c6ff8e140d10c58809a35a90da1487dcc723d603d152d133dabce8eda24b0",  # pnr-v7
    }
