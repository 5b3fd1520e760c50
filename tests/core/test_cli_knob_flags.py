"""The CLI's compile flags are generated from the knob table, and every
value is judged by its knob's own check: an illegal one is a typed
``[invalid_request]`` naming the knob (exit 2) on every subcommand, never
an argparse usage error."""

import json

import pytest

from repro.cli import _KNOB_FLAGS, _requests, build_parser, main
from repro.core.pipeline import BOOLEAN
from repro.service import ArtifactStore, FPSAClient
from repro.service.schemas import REQUEST_KNOBS, CompileRequest

KNOBS = {f.name: f for f in REQUEST_KNOBS}

#: one illegal value per valued knob flag (the boolean flags take none);
#: a pass list naming no pass stays the string ",", which the wire rejects
ILLEGAL = {
    "duplication_degree": "0",
    "pe_budget": "0",
    "passes": ",",
    "num_chips": "foo",
    "shard_jobs": "0",
    "deadline_s": "0",
    "max_retries": "-1",
}

#: how each compiling subcommand names its model
HEAD = {
    "deploy": ["deploy", "LeNet"],
    "sweep": ["sweep", "LeNet"],
    "serve-batch": ["serve-batch", "--model", "LeNet"],
    "jobs": ["jobs"],
    "passes": ["passes"],
}

CASES = [
    (command, name)
    for command, knobs in _KNOB_FLAGS.items()
    for name in knobs
    if name in ILLEGAL
]


def _argv(command, name, value):
    several = _KNOB_FLAGS[command][name] is not None
    # a several-valued flag: the illegal value follows a legal one
    values = ["1", value] if several else [value]
    return HEAD[command] + [KNOBS[name].metadata["flag"], *values]


def test_every_valued_knob_flag_has_an_illegal_case():
    valued = {
        name
        for knobs in _KNOB_FLAGS.values()
        for name in knobs
        if KNOBS[name].metadata["check"] is not BOOLEAN
    }
    assert valued == set(ILLEGAL)
    assert set(HEAD) == set(_KNOB_FLAGS)


@pytest.mark.parametrize(("command", "name"), CASES, ids=lambda v: v)
def test_an_illegal_value_is_a_typed_error(command, name, capsys):
    assert main(_argv(command, name, ILLEGAL[name])) == 2
    err = capsys.readouterr().err
    assert "error [invalid_request]" in err
    assert name in err


class TestServeBatchFile:
    """With a requests FILE, the generating flags are judged all the same."""

    @pytest.fixture
    def path(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([{"model": "LeNet"}]))
        return str(path)

    def test_an_illegal_duplication(self, path, capsys):
        assert main(["serve-batch", path, "--duplication", "1", "0"]) == 2
        err = capsys.readouterr().err
        assert "error [invalid_request]" in err
        assert "duplication_degree" in err

    @pytest.mark.parametrize("model", ["Nope", "LeNet"])
    def test_a_model_beside_the_file(self, path, model, capsys):
        assert main(["serve-batch", path, "--model", model]) == 2
        assert "error [invalid_request]" in capsys.readouterr().err


class TestLegalValues:
    def _request(self, *argv):
        (request,) = _requests(build_parser().parse_args(list(argv)))
        return request

    def test_auto_chips_is_the_wire_string(self):
        assert self._request("deploy", "LeNet", "--chips", "auto").num_chips == "auto"

    def test_a_fractional_deadline(self):
        request = self._request("serve-batch", "--model", "LeNet", "--deadline", "0.5")
        assert request.deadline_s == 0.5

    def test_a_whole_deadline_keeps_the_run_id(self):
        # the deadline is parsed as its knob's float: the request, and so
        # the stored run id, are the ones a deadline_s=30.0 request gives
        request = self._request("serve-batch", "--model", "LeNet", "--deadline", "30")
        assert request.to_json() == CompileRequest(model="LeNet", deadline_s=30.0).to_json()
        client = FPSAClient(cache=False)
        run_ids = {
            ArtifactStore.run_id_for(client.serve(r).response)
            for r in (request, CompileRequest(model="LeNet", deadline_s=30.0))
        }
        assert len(run_ids) == 1

    def test_an_empty_pass_list_is_still_wire_legal(self):
        # the CLI narrows nothing: a stored request with passes [] loads
        assert CompileRequest.from_dict({"model": "LeNet", "passes": []}).passes == ()

    def test_pass_list(self):
        request = self._request("deploy", "LeNet", "--passes", "synthesis, mapping")
        assert request.passes == ("synthesis", "mapping")

    def test_sweep_compiles_every_combination_in_order(self):
        argv = ["sweep", "LeNet", "--duplication", "1", "4", "--chips", "1", "auto"]
        requests = _requests(build_parser().parse_args(argv))
        assert [(r.duplication_degree, r.num_chips) for r in requests] == [
            (1, 1), (1, "auto"), (4, 1), (4, "auto"),
        ]

    def test_serve_batch_flags_replace_only_what_is_given(self, tmp_path):
        path = tmp_path / "requests.json"
        path.write_text(json.dumps([
            {"model": "LeNet", "deadline_s": 9, "max_retries": 1},
            {"model": "MLP-500-100", "duplication_degree": 2},
        ]))
        argv = ["serve-batch", str(path), "--deadline", "0.5", "--duplication", "8"]
        requests = _requests(build_parser().parse_args(argv))
        assert [r.deadline_s for r in requests] == [0.5, 0.5]
        assert [r.max_retries for r in requests] == [1, None]
        # --duplication shapes generated requests only
        assert [r.duplication_degree for r in requests] == [1, 2]


class TestUnknownModelIsTyped:
    def test_passes(self, capsys):
        assert main(["passes", "--model", "Nope"]) == 2
        assert "[unknown_model]" in capsys.readouterr().err

    def test_serve_batch_json(self, capsys):
        assert main(["serve-batch", "--model", "Nope", "--jobs", "1", "--json"]) == 1
        (response,) = json.loads(capsys.readouterr().out)
        assert response["error"]["code"] == "unknown_model"

    def test_jobs(self, capsys):
        assert main(["jobs", "--model", "Nope", "--duplication", "1", "--jobs", "1"]) == 1
        assert "failed" in capsys.readouterr().out
