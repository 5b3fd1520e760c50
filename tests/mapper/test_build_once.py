"""Artifact identity of the synthesizer -> mapper -> config_gen path.

The literals were recorded at commit ``af55fea`` (materialised tile plans,
two netlist builds per map) and, for the ``deploy_large`` bitstreams and
the replicated netlists, at ``4075ac8`` (one ``add_block`` call per block);
a change to how those artifacts are *derived* must leave every one of
them as it is.  The file uses only names that
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


    @pytest.mark.parametrize(
        "model, duplication, shard, expected, mutations",
        [
            # replication 8: every block name carries its ``rep{r}::`` prefix
            (
                "MLP-500-100", 64, None,
                "d17326a628de346f9a90cbef100e3e8829ae1c3bf7c8c34c04ce4a9e400b93cd", 348,
            ),
            (
                "ResNet152", 64, 1,
                "9780313861f69a3fe3d64c6386ebabf47e028c92e7884b4c1011b7569cdb090b", 2280,
            ),
        ],
    )
    def test_fingerprint_and_mutation_count(
        self, model, duplication, shard, expected, mutations
    ):
        result = _compile(model, duplication_degree=duplication, num_chips="auto")
        if shard is None:
            assert result.mapping.allocation.replication == 8
            mapping = result.mapping
        else:
            mapping = result.shard_results[shard].mapping
        netlist = mapping.netlist
        assert netlist_fingerprint(netlist) == expected
        assert netlist.mutation_count == mutations == len(netlist.blocks) + len(netlist.nets)


#: sha256 of each shard's bitstream JSON for every ``deploy_large`` point
DEPLOY_LARGE_JSON = {
    ("AlexNet", 1): ["e91970b604c1bed2c6fb915095cc65288df53b965234ecd8affa7ffd9137fcb1"],
    ("AlexNet", 64): ["bd24c11f960e631db4af385ed8886422f5578799e778baf8166d8c08ad288f4f"],
    ("VGG16", 1): [
        "16831bb6700c1fa9217a13f0595ba8ea4f84263add31eb1672a6c8015a0cc15b",
        "35a0ef536764d43c57d8d0d2e7348bafe827f0b3f45128b89d8d0f967ece6fa0",
    ],
    ("ResNet152", 1): ["c98f7e6494f83ec75233fc337eeca4b29a24087458d0eb542e804c28dcdff32c"],
    ("ResNet152", 64): [
        "c03b6124ec51fd4ed2a09ee6602b796420df25e9d34f7c9ed5824b23339e6477",
        "0d37f8591acc5d91f398a11625a67060da1d120a0c44824a96c53a6c317b4bc9",
    ],
    ("GoogLeNet", 64): ["5c5bef33d2d81f417bad47869871a6c4415e332387dbb871d256cfc54e1f46ca"],
}


class TestBitstreamIdentity:
    @pytest.mark.parametrize("model, duplication", list(DEPLOY_LARGE_JSON))
    def test_deploy_large_json_per_shard(self, model, duplication):
        result = _compile(
            model, duplication_degree=duplication, num_chips="auto", emit_bitstream=True
        )
        if result.bitstream is not None:
            bitstreams = [result.bitstream]
        else:
            bitstreams = [shard.bitstream for shard in result.shard_results]
        assert [_sha256(b.to_json()) for b in bitstreams] == DEPLOY_LARGE_JSON[
            model, duplication
        ]

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
            "39eb97ee8477d17a93136c7f8e8bb82e32573d65c95f4ab85f21f3681b9eaff6"
        )

    def test_json_round_trips(self, alexnet_bitstream):
        text = alexnet_bitstream.to_json()
        restored = FPSABitstream.from_json(text)
        assert restored == alexnet_bitstream
        assert restored.to_json() == text
