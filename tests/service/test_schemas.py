"""Tests of the versioned request/response wire schemas."""

import dataclasses
import json

import pytest

from repro.core.cache import StageCache
from repro.core.compiler import FPSACompiler
from repro.core.pipeline import PUBLIC_KNOBS, CompileOptions
from repro.errors import CapacityError, InvalidRequestError, UnknownModelError
from repro.models import build_model
from repro.service import (
    SCHEMA_VERSION,
    ArtifactStore,
    CompileRequest,
    CompileResponse,
    CompileTimings,
    ErrorPayload,
    ResultSummary,
    serve_request,
)


#: ``response.json`` of MLP-500-100 d16, ``dedup=True``, as a
#: ``ServingRuntime`` at commit 6141f2b stored it under ``_STORED_RUN_ID``.
_STORED_RUN_ID = "77933c3a249c03c2"
_STORED_WITH_DEDUP_COUNTERS = """
{"error": null, "request": {"deadline_s": null, "dedup": true,
"detailed_schedule": false, "duplication_degree": 16, "emit_bitstream": false,
"fault_plan": null, "max_retries": null, "max_schedule_reuse": null,
"model": "MLP-500-100", "num_chips": null, "passes": null, "pe_budget": null,
"pnr_channel_width": null, "pnr_jobs": null, "pnr_seed": 0, "run_pnr": false,
"schema_version": 1, "seed": null, "shard_jobs": null, "synthesis_options": null,
"tags": {}, "use_cache": true, "verify": false}, "schema_version": 1,
"status": "ok", "summary": {"bitstream": null, "blocks": {"n_clb": 3, "n_pe": 40,
"n_smb": 0}, "bounds": {"peak_density_tops_per_mm2": 38.01631718107818,
"spatial_bound_tops_per_mm2": 12.857973976997126,
"spatial_utilization": 0.3382225036621094,
"temporal_bound_tops_per_mm2": 12.857973976997126, "temporal_utilization": 1.0},
"duplication_degree": 16, "energy": {"clb_pj": 124.24, "pe_pj": 74480.64,
"routing_pj": 2840.064, "smb_pj": 8505.4, "tops_per_w": 10.315607346492994,
"total_pj": 85950.344}, "model": "MLP-500-100", "partition": null,
"performance": {"area_mm2": 1.0032527120000003, "latency_us": 1.7273720000000001,
"ops_per_sample": 886630, "real_tops": 11.251506960571565,
"throughput_samples_per_s": 12690194.28687453, "tops_per_mm2": 11.21502770537396,
"utilization": 0.3355399353598186}, "pipeline": null, "pnr": null},
"timings": {"cache_hits": 1, "cache_misses": 3, "dedup_hits": 5,
"dedup_misses": 0, "evictions": 0, "passes": [{"cached": true,
"name": "synthesis", "provides": ["coreops"], "seconds": 3.861900040647015e-05},
{"cached": false, "name": "mapping", "provides": ["mapping"],
"seconds": 0.001407748000929132}, {"cached": false, "name": "perf",
"provides": ["performance"], "seconds": 0.00015117200382519513},
{"cached": false, "name": "bounds", "provides": ["bounds"],
"seconds": 3.0409995815716684e-05}], "shared_cache_hits": 0,
"shared_cache_misses": 1, "total_seconds": 0.001627949000976514,
"write_errors": 0}}
"""


#: ``response.json`` of MLP-500-100 d1, ``detailed_schedule=True``, as the
#: build that still ran the cycle-level pipeline simulator stored it under
#: ``_STORED_SIMULATED_RUN_ID``: a non-null ``pipeline`` summary section
#: and a ``pipeline_sim`` timing row.
_STORED_SIMULATED_RUN_ID = "e2e3aaa55e106970"
_STORED_WITH_SIMULATOR_SECTION = """
{"error": null, "request": {"deadline_s": null, "dedup": false,
"detailed_schedule": true, "duplication_degree": 1, "emit_bitstream": false,
"fault_plan": null, "max_retries": null, "max_schedule_reuse": null, "model":
"MLP-500-100", "num_chips": null, "passes": null, "pe_budget": null,
"pnr_channel_width": null, "pnr_jobs": null, "pnr_seed": 0, "run_pnr": false,
"schema_version": 1, "seed": null, "shard_jobs": null, "synthesis_options":
null, "tags": {}, "use_cache": true, "verify": false}, "schema_version": 1,
"status": "ok", "summary": {"bitstream": null, "blocks": {"n_clb": 1, "n_pe":
13, "n_smb": 2}, "bounds": {"peak_density_tops_per_mm2": 38.01631718107818,
"spatial_bound_tops_per_mm2": 12.857973976997126, "spatial_utilization":
0.3382225036621094, "temporal_bound_tops_per_mm2": 2.4726873032686782,
"temporal_utilization": 0.19230769230769232}, "duplication_degree": 1, "energy":
{"clb_pj": 62.12, "pe_pj": 37240.32, "routing_pj": 1893.376, "smb_pj": 8505.4,
"tops_per_w": 18.587157191129048, "total_pj": 47701.216}, "model":
"MLP-500-100", "partition": null, "performance": {"area_mm2": 0.3404595986,
"latency_us": 2.825386, "ops_per_sample": 886630, "real_tops":
0.7050085240645794, "throughput_samples_per_s": 795155.2779226728,
"tops_per_mm2": 2.0707553171173223, "utilization": 0.06469109916953755},
"pipeline": {"initiation_interval_cycles": 512.0, "latency_us":
1.2532590000000001, "makespan_cycles": 513.0, "throughput_samples_per_s":
799478.1006958657}, "pnr": null}, "timings": {"cache_hits": 0, "cache_misses":
5, "dedup_hits": 0, "dedup_misses": 0, "evictions": 0, "passes": [{"cached":
false, "name": "synthesis", "provides": ["coreops"], "seconds":
0.00046950399973866297}, {"cached": false, "name": "mapping", "provides":
["mapping"], "seconds": 0.0014658829995823908}, {"cached": false, "name":
"perf", "provides": ["performance"], "seconds": 0.00022600900047109462},
{"cached": false, "name": "bounds", "provides": ["bounds"], "seconds":
5.239100028120447e-05}, {"cached": false, "name": "pipeline_sim", "provides":
["pipeline"], "seconds": 0.00018472500050847884}], "shared_cache_hits": 0,
"shared_cache_misses": 0, "total_seconds": 0.0023985120005818317,
"write_errors": 0}}
"""

class TestCompileRequest:
    def test_defaults(self):
        request = CompileRequest(model="LeNet")
        assert request.schema_version == SCHEMA_VERSION
        assert request.duplication_degree == 1
        assert request.use_cache is True
        assert request.passes is None

    def test_json_round_trip(self):
        request = CompileRequest(
            model="LeNet",
            duplication_degree=8,
            detailed_schedule=True,
            passes=("synthesis", "mapping"),
            synthesis_options={"lower_pooling": False},
            tags={"sweep": "s1"},
        )
        rebuilt = CompileRequest.from_json(request.to_json())
        assert rebuilt == request
        # and the JSON itself is a plain object
        assert json.loads(request.to_json())["model"] == "LeNet"

    def test_passes_normalize_to_tuple(self):
        request = CompileRequest(model="LeNet", passes=["synthesis", "mapping"])
        assert request.passes == ("synthesis", "mapping")
        assert CompileRequest.from_dict(request.to_dict()) == request

    def test_unknown_schema_version_rejected(self):
        with pytest.raises(InvalidRequestError) as excinfo:
            CompileRequest(model="LeNet", schema_version=99)
        assert excinfo.value.details["got"] == 99
        payload = CompileRequest(model="LeNet").to_dict()
        payload["schema_version"] = 0
        with pytest.raises(InvalidRequestError):
            CompileRequest.from_dict(payload)

    def test_unknown_fields_rejected(self):
        payload = CompileRequest(model="LeNet").to_dict()
        payload["frobnicate"] = True
        with pytest.raises(InvalidRequestError) as excinfo:
            CompileRequest.from_dict(payload)
        assert "frobnicate" in str(excinfo.value)

    @pytest.mark.parametrize("plan", [None, '{"faults": []}', {"faults": []}, 5])
    def test_the_retired_fault_plan_is_read_with_any_value_and_dropped(self, plan):
        payload = {"model": "LeNet", "duplication_degree": 2}
        request = CompileRequest.from_dict({**payload, "fault_plan": plan})
        assert request == CompileRequest.from_dict(payload)
        # written as its constant, so a stored run id still hashes the key
        assert request.to_dict()["fault_plan"] is None
        assert "fault_plan" not in {f.name for f in dataclasses.fields(CompileRequest)}

    def test_a_retired_key_hides_no_unknown_one(self):
        payload = {"model": "LeNet", "fault_plan": None, "frobnicate": True}
        with pytest.raises(InvalidRequestError) as excinfo:
            CompileRequest.from_dict(payload)
        assert excinfo.value.details["unknown_fields"] == ["frobnicate"]

    def test_invalid_values_rejected(self):
        with pytest.raises(InvalidRequestError):
            CompileRequest(model="")
        with pytest.raises(InvalidRequestError):
            CompileRequest(model="LeNet", duplication_degree=0)
        with pytest.raises(InvalidRequestError):
            CompileRequest(model="LeNet", pe_budget=0)
        with pytest.raises(InvalidRequestError):
            CompileRequest.from_dict({"duplication_degree": 2})

    def test_wrongly_typed_numerics_rejected(self):
        # JSON strings where integers belong must be a typed rejection,
        # not a raw TypeError from the range comparison
        with pytest.raises(InvalidRequestError):
            CompileRequest(model="LeNet", duplication_degree="4")
        with pytest.raises(InvalidRequestError):
            CompileRequest.from_dict({"model": "LeNet", "pe_budget": "128"})

    def test_malformed_json_rejected(self):
        with pytest.raises(InvalidRequestError):
            CompileRequest.from_json("{not json")
        with pytest.raises(InvalidRequestError):
            CompileRequest.from_json("[1, 2, 3]")

    def test_fingerprint_is_stable_and_ignores_tags(self):
        a = CompileRequest(model="LeNet", duplication_degree=4)
        b = CompileRequest(model="LeNet", duplication_degree=4, tags={"run": "x"})
        c = CompileRequest(model="LeNet", duplication_degree=8)
        assert a.fingerprint() == b.fingerprint()
        assert a.fingerprint() != c.fingerprint()

    def test_dedup_is_an_execution_knob_not_a_fingerprint_input(self):
        # accepted and type-checked, read by nothing: requests differing
        # only in it must coalesce/cache-hit together
        a = CompileRequest(model="LeNet")
        b = CompileRequest(model="LeNet", dedup=True)
        assert a.fingerprint() == b.fingerprint()
        assert CompileRequest.from_dict(b.to_dict()) == b
        assert b.compile_kwargs()["dedup"] is True
        with pytest.raises(InvalidRequestError):
            CompileRequest(model="LeNet", dedup="yes")

    def test_dedup_changes_nothing_served(self):
        def served(dedup):
            request = CompileRequest(model="LeNet", dedup=dedup)
            response = serve_request(request, cache=StageCache()).response
            timings = response.timings.to_dict()
            timings.pop("total_seconds")
            for entry in timings["passes"]:
                entry.pop("seconds")
            return response.summary, timings

        on, off = served(True), served(False)
        assert on == off
        assert on[1]["dedup_hits"] == on[1]["dedup_misses"] == 0


#: wire payloads that used to be answered ``internal``, silently misread or
#: passed on to crash later; each must be an ``invalid_request`` naming the
#: field the moment the request is built
_MISTYPED = [
    ("pnr_channel_width", "8"),
    ("pnr_seed", "7"),
    ("max_schedule_reuse", "x"),
    ("run_pnr", "no"),
    ("emit_bitstream", 1),
    ("detailed_schedule", "yes"),
    ("use_cache", "false"),
    ("duplication_degree", True),
    ("pe_budget", True),
    ("seed", True),
    ("passes", "synthesis"),
    ("tags", "x"),
    ("tags", {"run": 1}),
    ("synthesis_options", ["lower_pooling"]),
]


class TestMistypedFieldsAreInvalidRequests:
    @pytest.mark.parametrize("name,value", _MISTYPED)
    def test_rejected_at_request_construction(self, name, value):
        with pytest.raises(InvalidRequestError) as excinfo:
            CompileRequest.from_dict({"model": "LeNet", name: value})
        assert excinfo.value.details == {name: repr(value)}
        assert name in str(excinfo.value)

    @pytest.mark.parametrize(
        "name,value",
        [(n, v) for n, v in _MISTYPED if n in {f.name for f in PUBLIC_KNOBS}],
    )
    def test_same_typed_error_from_options_and_compile(self, name, value):
        with pytest.raises(InvalidRequestError) as from_options:
            CompileOptions(**{name: value})
        with pytest.raises(InvalidRequestError) as from_compile:
            FPSACompiler(cache=False).compile(build_model("LeNet"), **{name: value})
        with pytest.raises(InvalidRequestError) as from_request:
            CompileRequest(model="LeNet", **{name: value})
        assert (
            from_options.value.payload()
            == from_compile.value.payload()
            == from_request.value.payload()
        )


class TestServeAndRoundTrip:
    def test_full_flow_response_round_trips_losslessly(self):
        request = CompileRequest(
            model="LeNet",
            duplication_degree=4,
            detailed_schedule=True,
            run_pnr=True,
            emit_bitstream=True,
        )
        response = serve_request(request).response
        assert response.ok
        # every artifact section made it into the summary; the inert
        # ``detailed_schedule`` no longer adds a simulator section
        summary = response.summary
        for section in ("blocks", "performance", "bounds", "energy",
                        "pnr", "bitstream"):
            assert getattr(summary, section) is not None, section
        assert summary.pipeline is None
        assert "pipeline_sim" not in response.timings.seconds_by_stage()
        rebuilt = CompileResponse.from_json(response.to_json())
        assert rebuilt == response
        assert rebuilt.to_json() == response.to_json()

    def test_inert_request_fields_change_no_summary(self):
        plain = serve_request(CompileRequest(model="MLP-500-100")).response
        inert = serve_request(
            CompileRequest(model="MLP-500-100", detailed_schedule=True, max_schedule_reuse=2)
        ).response
        assert inert.summary == plain.summary
        assert inert.request.fingerprint() != plain.request.fingerprint()
        assert inert.to_dict()["summary"]["pipeline"] is None

    def test_decoded_responses_share_their_key_strings(self):
        # what a response kept in memory costs is mostly the key strings
        # of its summary sections and pass rows, unless decodes share them
        response = serve_request(CompileRequest(model="LeNet", run_pnr=True)).response
        a, b = (CompileResponse.from_json(response.to_json()) for _ in range(2))
        assert a == b == response
        for section in ("blocks", "performance", "bounds", "energy", "pnr"):
            keys = zip(getattr(a.summary, section), getattr(b.summary, section))
            assert all(x is y for x, y in keys), section
        assert a.summary.model is b.summary.model
        for x, y in zip(a.timings.passes, b.timings.passes):
            assert x.name is y.name
            assert all(p is q for p, q in zip(x.provides, y.provides))

    def test_partial_compile_sections_are_none(self):
        request = CompileRequest(model="MLP-500-100", passes=("synthesis", "mapping"))
        response = serve_request(request).response
        assert response.ok
        assert response.summary.blocks is not None
        assert response.summary.performance is None
        assert response.summary.pnr is None
        assert CompileResponse.from_json(response.to_json()) == response

    def test_timings_carry_cache_counters(self):
        from repro.core.cache import StageCache

        cache = StageCache()
        request = CompileRequest(model="MLP-500-100", duplication_degree=2)
        cold = serve_request(request, cache=cache).response
        warm = serve_request(request, cache=cache).response
        assert cold.timings.cache_hits == 0
        assert cold.timings.cache_misses > 0
        assert warm.timings.cache_hits > 0
        assert warm.timings.cache_hits + warm.timings.cache_misses == len(
            warm.timings.passes
        )

    def test_failed_compile_maps_to_error_payload(self):
        response = serve_request(
            CompileRequest(model="MLP-500-100", pe_budget=1)
        ).response
        assert not response.ok
        assert response.summary is None
        assert response.error.code == "capacity_error"
        assert response.error.type == "CapacityError"
        rebuilt = CompileResponse.from_json(response.to_json())
        assert rebuilt == response
        with pytest.raises(CapacityError):
            rebuilt.raise_for_status()

    def test_unknown_model_maps_to_error_payload(self):
        response = serve_request(CompileRequest(model="NotAModel")).response
        assert response.error.code == "unknown_model"
        with pytest.raises(UnknownModelError):
            response.raise_for_status()

    def test_bad_pass_list_is_invalid_request_not_internal(self):
        response = serve_request(
            CompileRequest(model="MLP-500-100", passes=("bogus",))
        ).response
        assert response.error.code == "invalid_request"
        assert "bogus" in response.error.message

    def test_bad_synthesis_options_is_invalid_request(self):
        response = serve_request(
            CompileRequest(model="MLP-500-100", synthesis_options={"bogus": 1})
        ).response
        assert response.error.code == "invalid_request"
        assert response.error.details["synthesis_options"] == {"bogus": 1}

    def test_response_rejects_unknown_schema_version(self):
        response = serve_request(CompileRequest(model="MLP-500-100")).response
        payload = response.to_dict()
        payload["schema_version"] = 2
        with pytest.raises(InvalidRequestError):
            CompileResponse.from_dict(payload)

    def test_response_status_invariants(self):
        request = CompileRequest(model="MLP-500-100")
        with pytest.raises(InvalidRequestError):
            CompileResponse(request=request, status="ok")  # missing summary
        with pytest.raises(InvalidRequestError):
            CompileResponse(request=request, status="error")  # missing error
        with pytest.raises(InvalidRequestError):
            CompileResponse(
                request=request, status="maybe",
                summary=ResultSummary(model="MLP-500-100"),
            )


class TestErrorPayload:
    def test_non_fpsa_exception_becomes_internal(self):
        payload = ErrorPayload.from_exception(ZeroDivisionError("division by zero"))
        assert payload.code == "internal"
        assert payload.type == "ZeroDivisionError"
        assert payload.to_exception().message == "division by zero"

    def test_round_trip(self):
        payload = ErrorPayload(
            code="mapping_error", type="MappingError",
            message="no groups", details={"model": "X"},
        )
        assert ErrorPayload.from_dict(payload.to_dict()) == payload

    def test_missing_required_field_is_typed(self):
        with pytest.raises(InvalidRequestError) as excinfo:
            ErrorPayload.from_dict({"type": "MappingError", "message": "x"})
        assert excinfo.value.details["missing_field"] == "code"


class TestCompileTimings:
    def test_from_none_is_none(self):
        assert CompileTimings.from_pass_timings(None) is None

    def test_round_trip(self):
        from repro.core.pipeline import PassTiming

        timings = CompileTimings.from_pass_timings([
            PassTiming("synthesis", 0.25, False, ("coreops",)),
            PassTiming("mapping", 0.05, True, ("mapping",)),
        ])
        assert timings.cache_hits == 1
        assert timings.cache_misses == 1
        assert timings.total_seconds == pytest.approx(0.30)
        assert CompileTimings.from_dict(timings.to_dict()) == timings

    def test_pre_dedup_payload_still_parses(self):
        # stored responses written before the dedup counters existed lack
        # the keys entirely; they must rehydrate with zeroed counters
        payload = {
            "passes": [],
            "total_seconds": 0.1,
            "cache_hits": 2,
            "cache_misses": 1,
        }
        timings = CompileTimings.from_dict(payload)
        assert timings.dedup_hits == 0
        assert timings.dedup_misses == 0

    def test_dedup_counters_round_trip(self, tmp_path):
        # a run stored by a build that still counted subgraph-store lookups
        # keeps parsing, and ``load(run_id, verify=True)`` of a store written
        # then still passes: its id hashed a shared-tier miss, a volatile
        # counter now, so it verifies under the address it was saved at
        payload = json.loads(_STORED_WITH_DEDUP_COUNTERS)
        response = CompileResponse.from_dict(payload)
        assert response.timings.dedup_hits == 5
        assert response.to_dict() == payload
        run_dir = tmp_path / "runs" / _STORED_RUN_ID
        run_dir.mkdir(parents=True)
        (run_dir / "response.json").write_text(json.dumps(payload), encoding="utf-8")
        assert ArtifactStore(tmp_path).load(_STORED_RUN_ID, verify=True) == response

    def test_stored_simulator_section_loads_and_keeps_its_run_id(self, tmp_path):
        # the section and the two request fields are load-only now; a run
        # stored with them parses, round-trips and re-hashes to its id
        payload = json.loads(_STORED_WITH_SIMULATOR_SECTION)
        response = CompileResponse.from_dict(payload)
        assert response.request.detailed_schedule is True
        assert response.summary.pipeline["initiation_interval_cycles"] == 512.0
        assert response.to_dict() == payload
        assert CompileResponse.from_json(response.to_json()) == response
        assert ArtifactStore.run_id_for(response) == _STORED_SIMULATED_RUN_ID
        store = ArtifactStore(tmp_path / "runs")
        assert store.save(response) == _STORED_SIMULATED_RUN_ID
        assert store.load(_STORED_SIMULATED_RUN_ID, verify=True) == response

    def test_truncated_payload_is_typed(self):
        # a hand-edited/truncated stored response must fail with the typed
        # error, not a raw KeyError
        with pytest.raises(InvalidRequestError):
            CompileTimings.from_dict({"passes": [], "cache_hits": 0, "cache_misses": 1})
        with pytest.raises(InvalidRequestError):
            CompileTimings.from_dict({
                "passes": [{"name": "synthesis"}],
                "total_seconds": 0.1, "cache_hits": 0, "cache_misses": 1,
            })
