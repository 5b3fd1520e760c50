"""The compile-knob table (``CompileOptions``) and everything derived from
it: enumerated, not remembered."""

import argparse
import dataclasses
import inspect
import pathlib
import re

import pytest

import repro
from repro import deploy_model
from repro.cli import _KNOB_FLAGS, build_parser
from repro.core.compiler import FPSACompiler
from repro.core.pipeline import KNOBS, PUBLIC_KNOBS, CompileContext, CompileOptions
from repro.errors import InvalidRequestError
from repro.mapper.passes import MappingPass
from repro.models import build_model
from repro.partition.passes import PartitionPass
from repro.pnr.passes import PnRPass
from repro.service import CompileRequest
from repro.synthesizer.passes import SynthesisPass

REQUEST_FIELDS = {f.name: f for f in dataclasses.fields(CompileRequest)}
#: the fields ``CompileRequest`` declares itself (the rest mirror the table)
REQUEST_ONLY = tuple(f for f in REQUEST_FIELDS.values() if "check" in f.metadata)

#: one legal non-default value per wire knob; a knob added to either table
#: without an entry here fails ``test_every_wire_knob_is_enumerated``
NON_DEFAULT = {
    "duplication_degree": 4,
    "pe_budget": 200,
    "detailed_schedule": True,
    "run_pnr": True,
    "emit_bitstream": True,
    "max_schedule_reuse": 3,
    "pnr_channel_width": 16,
    "pnr_seed": 5,
    "pnr_jobs": 4,
    "seed": 7,
    "num_chips": 2,
    "shard_jobs": 2,
    "verify": True,
    "dedup": True,
    "passes": ("synthesis", "mapping"),
    "use_cache": False,
    "deadline_s": 2.5,
    "max_retries": 3,
    "synthesis_options": {"lower_pooling": False},
    "tags": {"sweep": "s1"},
}

WIRE_KNOBS = PUBLIC_KNOBS + REQUEST_ONLY
#: the knobs the command line spells as flags
FLAGGED = tuple(f for f in WIRE_KNOBS if f.metadata["flag"])


class TestTheTable:
    def test_every_field_declares_role_fingerprint_and_check(self):
        for f in KNOBS + REQUEST_ONLY:
            assert f.metadata["role"] in ("semantic", "execution", "internal", "serving")
            assert isinstance(f.metadata["fingerprinted"], bool)
            expects, ok = f.metadata["check"]
            assert isinstance(expects, str) and callable(ok)
        assert {f.metadata["role"] for f in KNOBS} == {"semantic", "execution", "internal"}

    def test_every_wire_knob_is_enumerated(self):
        assert set(NON_DEFAULT) == {f.name for f in WIRE_KNOBS}
        for f in WIRE_KNOBS:
            default = f.default_factory() if f.default is dataclasses.MISSING else f.default
            assert NON_DEFAULT[f.name] != default

    def test_request_mirrors_the_public_knobs(self):
        mirrored = {
            name: f.default
            for name, f in REQUEST_FIELDS.items()
            if "check" not in f.metadata and name not in ("model", "schema_version")
        }
        assert mirrored == {f.name: f.default for f in PUBLIC_KNOBS}
        assert len(REQUEST_FIELDS) == 22

    def test_compile_takes_the_knobs_as_one_catch_all(self):
        parameters = inspect.signature(FPSACompiler.compile).parameters
        assert list(parameters) == ["self", "graph", "passes", "use_cache", "knobs"]
        assert parameters["knobs"].kind is inspect.Parameter.VAR_KEYWORD

    def test_compile_kwargs_are_what_compile_takes(self):
        request = CompileRequest(model="LeNet", **NON_DEFAULT)
        kwargs = request.compile_kwargs()
        assert set(kwargs) == {f.name for f in PUBLIC_KNOBS} | {"passes", "use_cache"}
        assert all(kwargs[name] == NON_DEFAULT[name] for name in kwargs)


class TestFingerprintFollowsTheTable:
    @pytest.mark.parametrize("knob", WIRE_KNOBS, ids=lambda f: f.name)
    def test_membership(self, knob):
        default = CompileRequest(model="LeNet").fingerprint()
        changed = CompileRequest(
            model="LeNet", **{knob.name: NON_DEFAULT[knob.name]}
        ).fingerprint()
        assert (changed != default) == knob.metadata["fingerprinted"]

    def test_only_two_execution_knobs_are_fingerprinted(self):
        # today's behaviour, kept so stored run ids stay valid
        assert {
            f.name
            for f in WIRE_KNOBS
            if f.metadata["role"] == "execution" and f.metadata["fingerprinted"]
        } == {"shard_jobs", "use_cache"}


class TestExecutionKnobsMoveNoCacheKey:
    @pytest.fixture(scope="class")
    def keys(self):
        compiler = FPSACompiler(cache=False)
        graph = build_model("LeNet")
        front = compiler.compile(graph, passes=("synthesis", "mapping"))

        def keys(**knobs):
            ctx = CompileContext(
                graph=graph,
                config=compiler.config,
                options=CompileOptions(run_pnr=True, seed=0, **knobs),
                synthesis_options=compiler.synthesis_options,
            )
            ctx.coreops = front.coreops
            ctx.mapping = front.mapping
            return {
                p.name: p().cache_key(ctx)
                for p in (SynthesisPass, PartitionPass, MappingPass, PnRPass)
            }

        return keys

    @pytest.mark.parametrize(
        "name", [f.name for f in KNOBS if f.metadata["role"] == "execution"]
    )
    def test_keys_unchanged(self, keys, name):
        assert keys(**{name: NON_DEFAULT[name]}) == keys()


class TestUnknownKnobIsATypedError:
    def _check(self, excinfo, name):
        assert name in str(excinfo.value)
        assert excinfo.value.details["unknown"] == [name]
        assert excinfo.value.details["known"] == sorted(f.name for f in PUBLIC_KNOBS)

    def test_compile(self):
        with pytest.raises(InvalidRequestError) as excinfo:
            FPSACompiler(cache=False).compile(build_model("LeNet"), duplicaton_degree=4)
        self._check(excinfo, "duplicaton_degree")

    def test_internal_fields_are_not_compile_keywords(self):
        with pytest.raises(InvalidRequestError) as excinfo:
            FPSACompiler(cache=False).compile(build_model("LeNet"), max_pes=4)
        self._check(excinfo, "max_pes")

    def test_deploy_helpers(self):
        with pytest.raises(InvalidRequestError) as excinfo:
            deploy_model("LeNet", bogus=1)
        self._check(excinfo, "bogus")


class TestTheParserFollowsTheTable:
    """Every knob with a ``flag`` is an option of exactly the subcommands
    that select it, generated from the knob; none is spelled by hand."""

    @pytest.fixture(scope="class")
    def options(self):
        (commands,) = (
            a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
        )
        return {
            command: {flag: a for a in sub._actions for flag in a.option_strings}
            for command, sub in commands.choices.items()
        }

    @pytest.mark.parametrize("knob", FLAGGED, ids=lambda f: f.name)
    def test_on_exactly_the_selecting_subcommands(self, options, knob):
        flag = knob.metadata["flag"]
        selecting = {c for c, knobs in _KNOB_FLAGS.items() if knob.name in knobs}
        assert selecting
        assert {c for c, opts in options.items() if flag in opts} == selecting
        assert {options[c][flag].dest for c in selecting} == {knob.name}

    def test_no_option_stands_in_for_a_knob(self, options):
        flags = {f.name: f.metadata["flag"] for f in FLAGGED}
        for opts in options.values():
            for flag, action in opts.items():
                if action.dest in flags or flag in flags.values():
                    assert flags.get(action.dest) == flag

    @pytest.mark.parametrize("knob", FLAGGED, ids=lambda f: f.name)
    def test_the_flag_is_spelled_once_in_the_source(self, knob):
        quoted = f'"{knob.metadata["flag"]}"'
        source = pathlib.Path(repro.__file__).parent
        assert sum(p.read_text().count(quoted) for p in source.rglob("*.py")) == 1


def test_architecture_md_prints_the_table():
    text = (pathlib.Path(__file__).parents[2] / "ARCHITECTURE.md").read_text()
    rows = re.findall(
        r"^\| `(\w+)` \| (\w+) \| (yes|no) \| `([^`]+)` \| (?:`(--[\w-]+)`|-) \|", text, re.M
    )
    assert rows == [
        (
            f.name,
            f.metadata["role"],
            "yes" if f.metadata["fingerprinted"] else "no",
            repr(f.default),
            f.metadata["flag"] or "",
        )
        for f in KNOBS
    ]
