"""Artifact identity of the synthesizer -> mapper -> config_gen path.

The literals were recorded at commit ``af55fea`` (materialised tile plans,
two netlist builds per map); a change to how those artifacts are *derived*
must leave every one of them as it is.  The file uses only names that
commit has, so it runs unmodified on both sides of such a change.
"""

import hashlib

import pytest

from repro.config_gen import FPSABitstream
from repro.core.cache import netlist_fingerprint
from repro.core.compiler import FPSACompiler
from repro.models.zoo import build_model


def _compile(model, **knobs):
    return FPSACompiler().compile(build_model(model), use_cache=False, **knobs)


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestNetlistIdentity:
    @pytest.mark.parametrize(
        "model, duplication, expected",
        [
            ("LeNet", 4, "49a4261dc478063684b754a0636baf12421491acfe504cb0c37db603c67f0ea8"),
            ("CIFAR-VGG17", 16, "82daffc947234e5fa30c8162d9297b1a3ce63dfbbff0b261e3fdd4f6a32f1bc1"),
        ],
    )
    def test_single_chip_netlist_fingerprint(self, model, duplication, expected):
        result = _compile(model, duplication_degree=duplication)
        assert netlist_fingerprint(result.mapping.netlist) == expected

    def test_vgg16_first_shard_netlist_fingerprint(self):
        result = _compile("VGG16", duplication_degree=1, num_chips="auto")
        assert len(result.shard_results) == 2
        first = result.shard_results[0].mapping.netlist
        assert netlist_fingerprint(first) == (
            "6f054c28db0187f93a351d92eacc03885639f2aa4376904d646166dcb237096a"
        )


class TestBitstreamIdentity:
    @pytest.fixture(scope="class")
    def alexnet_bitstream(self):
        return _compile("AlexNet", duplication_degree=1, emit_bitstream=True).bitstream

    def test_alexnet_json_without_pnr(self, alexnet_bitstream):
        assert _sha256(alexnet_bitstream.to_json()) == (
            "e91970b604c1bed2c6fb915095cc65288df53b965234ecd8affa7ffd9137fcb1"
        )

    def test_lenet_json_with_pnr(self):
        result = _compile(
            "LeNet", duplication_degree=2, run_pnr=True, seed=0, emit_bitstream=True
        )
        assert len(result.bitstream.routing) == 34
        assert _sha256(result.bitstream.to_json()) == (
            "ba29abfc2fbb691ccd0994d18ff1d3dd7d74924c7f21ebf5cfc395b78be6bf65"
        )

    def test_json_round_trips(self, alexnet_bitstream):
        text = alexnet_bitstream.to_json()
        restored = FPSABitstream.from_json(text)
        assert restored == alexnet_bitstream
        assert restored.to_json() == text
