"""The one wire codec (``repro.wire``): every record encodes from its
fields and decodes by one rule set, and bad outside input is always an
``InvalidRequestError`` naming the record and the field."""

from dataclasses import dataclass, field

import pytest

from repro.errors import InvalidRequestError
from repro.faults import FaultPlan, FaultSpec
from repro.fuzz import LayerSpec, ModelSpec
from repro.service import (
    CompileRequest,
    CompileResponse,
    CompileTimings,
    ErrorPayload,
    ResultSummary,
)
from repro.service.schemas import PassTimingEntry
from repro.wire import WireRecord

_DENSE = {"kind": "dense", "width": 10}
_TIMINGS = {"passes": [], "total_seconds": 0.1, "cache_hits": 0, "cache_misses": 0}
_PASS = {"name": "synthesis", "seconds": 0.1, "cached": False, "provides": ["coreops"]}

#: ``(record, payload, field)``: each used to escape the decoders as a raw
#: TypeError / ValueError / AttributeError, or to be misread
_MALFORMED = [
    (ModelSpec, {"name": "m", "input_shape": 784, "layers": [_DENSE]}, "input_shape"),
    (ModelSpec, {"name": "m", "input_shape": [784], "layers": [1]}, "layers"),
    (LayerSpec, {"kind": "dense", "width": "abc"}, "width"),
    (CompileTimings, {**_TIMINGS, "total_seconds": "abc"}, "total_seconds"),
    (CompileTimings, {**_TIMINGS, "passes": 5}, "passes"),
    (CompileTimings, {**_TIMINGS, "passes": [3]}, "passes"),
    (ResultSummary, {"model": "LeNet", "blocks": [1]}, "blocks"),
    (ErrorPayload, {"code": "internal", "details": [1, 2]}, "details"),
    (CompileResponse, {"request": {"model": "LeNet"}, "status": "ok", "summary": [1]},
     "summary"),
    (CompileResponse, {"request": [1], "status": "ok"}, "request"),
    (FaultSpec, {"site": "s", "kind": "crash", "match": [1]}, "match"),
    (PassTimingEntry, {**_PASS, "cached": "false"}, "cached"),
]


@pytest.mark.parametrize(
    "record,payload,name", _MALFORMED, ids=lambda v: getattr(v, "__name__", None)
)
def test_a_malformed_payload_names_the_record_and_the_field(record, payload, name):
    with pytest.raises(InvalidRequestError) as excinfo:
        record.from_dict(payload)
    message = str(excinfo.value)
    assert message.startswith(f"{record.__name__} field {name!r} must be ")
    assert excinfo.value.details == {name: repr(payload[name])}


class TestRules:
    def test_unknown_and_missing_fields_are_named(self):
        with pytest.raises(InvalidRequestError) as unknown:
            LayerSpec.from_dict({**_DENSE, 1: 2, "colour": "red"})
        assert unknown.value.details["unknown_fields"] == ["1", "colour"]
        with pytest.raises(InvalidRequestError) as missing:
            PassTimingEntry.from_dict({"name": "x", "seconds": 0.0, "cached": True})
        assert missing.value.details == {
            "schema": "PassTimingEntry", "missing_field": "provides",
        }

    def test_a_knob_field_keeps_its_own_check(self):
        with pytest.raises(InvalidRequestError) as excinfo:
            CompileRequest.from_dict({"model": "LeNet", "deadline_s": -1})
        assert "a number > 0" in str(excinfo.value)
        assert excinfo.value.details == {"deadline_s": "-1"}

    def test_booleans_are_not_numbers(self):
        with pytest.raises(InvalidRequestError):
            CompileTimings.from_dict({**_TIMINGS, "cache_hits": True})
        with pytest.raises(InvalidRequestError):
            PassTimingEntry.from_dict({**_PASS, "seconds": False})

    def test_a_decoded_field_is_taken_as_given(self):
        request = CompileRequest(model="LeNet")
        data = {"request": "never parsed", "status": "error",
                "error": {"code": "internal"}}
        response = CompileResponse.from_dict(data, request=request)
        assert response.request is request
        # the constructor and the decoder agree on the error defaults
        assert response.error == ErrorPayload(code="internal")
        assert response.error.type == "FPSAError" and response.error.message == ""


class TestEncoding:
    def test_fields_in_declaration_order_as_plain_json(self):
        spec = FaultSpec(site="s", kind="hang", match={"a": (1, 2)})
        assert spec.to_dict() == {
            "site": "s", "kind": "hang", "match": {"a": [1, 2]},
            "at": 0, "times": 1, "seconds": 0.1,
        }
        assert list(FaultPlan(faults=(spec,)).to_dict()) == ["faults", "seed"]

    def test_encoded_containers_are_fresh(self):
        summary = ResultSummary(model="LeNet", energy={"pe_pj": 1.0},
                                partition={"shards": [{"n_pe": 1}]})
        data = summary.to_dict()
        data["energy"]["pe_pj"] = 2.0
        data["partition"]["shards"][0]["n_pe"] = 2
        assert summary.energy == {"pe_pj": 1.0}
        assert summary.partition == {"shards": [{"n_pe": 1}]}

    def test_a_new_record_needs_only_its_fields(self):
        @dataclass(frozen=True)
        class Point(WireRecord):
            x: int
            tags: tuple[str, ...] = ()
            meta: dict[str, float] = field(default_factory=dict)

        point = Point(x=1, tags=("a",), meta={"w": 0.5})
        assert Point.from_json(point.to_json()) == point
        with pytest.raises(InvalidRequestError, match="Point field 'x' must be int, got '1'"):
            Point.from_dict({"x": "1"})
