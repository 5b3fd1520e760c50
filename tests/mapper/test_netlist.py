"""Tests of the function-block netlist builder."""

import pickle

import pytest

from repro.mapper.allocation import allocate
from repro.mapper.netlist import Block, BlockType, FunctionBlockNetlist, Net, build_netlist
from repro.synthesizer.coreop import CoreOpGraph, WeightGroup


class TestNetlistDataModel:
    def test_block_type_validated(self):
        with pytest.raises(ValueError):
            Block(name="x", type="GPU")

    def test_net_requires_sinks_and_bits(self):
        with pytest.raises(ValueError):
            Net(name="n", driver="a", sinks=())
        with pytest.raises(ValueError):
            Net(name="n", driver="a", sinks=("b",), bits=0)

    @pytest.mark.parametrize(
        "record, text",
        [
            (
                Block("pe0", BlockType.PE, "g", 1, 2),
                "Block(name='pe0', type='PE', group='g', tile=1, duplicate=2)",
            ),
            (
                Net("n", "pe0", ("pe1", "pe2"), 3),
                "Net(name='n', driver='pe0', sinks=('pe1', 'pe2'), bits=3)",
            ),
        ],
        ids=["Block", "Net"],
    )
    def test_records_are_immutable_tuples(self, record, text):
        for name in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, name, getattr(record, name))
        # the repr is the fingerprinted form
        assert repr(record) == text
        assert type(record)(**record._asdict()) == record
        assert pickle.loads(pickle.dumps(record)) == record

    def test_duplicate_block_rejected(self):
        netlist = FunctionBlockNetlist("m")
        netlist.add_block(Block("a", BlockType.PE))
        with pytest.raises(ValueError):
            netlist.add_block(Block("a", BlockType.PE))

    def test_net_references_checked(self):
        netlist = FunctionBlockNetlist("m")
        netlist.add_block(Block("a", BlockType.PE))
        with pytest.raises(ValueError):
            netlist.add_net(Net("n", driver="a", sinks=("ghost",)))

    def test_counters(self):
        netlist = FunctionBlockNetlist("m")
        netlist.add_block(Block("pe0", BlockType.PE))
        netlist.add_block(Block("smb0", BlockType.SMB))
        netlist.add_block(Block("clb0", BlockType.CLB))
        assert netlist.n_pe == 1
        assert netlist.n_smb == 1
        assert netlist.n_clb == 1
        assert "1 PEs" in netlist.summary()


class TestBuildNetlist:
    def test_pe_count_matches_allocation(self, lenet_coreops, config):
        allocation = allocate(lenet_coreops, 4, config.pe)
        netlist = build_netlist(lenet_coreops, allocation, config)
        assert netlist.n_pe == allocation.total_pes

    def test_io_blocks_present(self, mlp_coreops, config):
        allocation = allocate(mlp_coreops, 1, config.pe)
        netlist = build_netlist(mlp_coreops, allocation, config)
        assert "__input__" in netlist.blocks
        assert "__output__" in netlist.blocks

    def test_every_net_endpoint_exists(self, lenet_coreops, config):
        allocation = allocate(lenet_coreops, 2, config.pe)
        netlist = build_netlist(lenet_coreops, allocation, config)
        for net in netlist.nets:
            assert net.driver in netlist.blocks
            assert all(s in netlist.blocks for s in net.sinks)

    def test_buffers_inserted_for_iterating_groups(self, lenet_coreops, config):
        allocation = allocate(lenet_coreops, 1, config.pe)
        netlist = build_netlist(lenet_coreops, allocation, config)
        assert netlist.n_smb > 0

    def test_clb_count_override(self, mlp_coreops, config):
        allocation = allocate(mlp_coreops, 1, config.pe)
        netlist = build_netlist(mlp_coreops, allocation, config, clb_blocks=7)
        assert netlist.n_clb == 7

    def test_control_attaches_to_the_datapath(self, lenet_coreops, config):
        from repro.mapper.netlist import attach_control, build_datapath

        allocation = allocate(lenet_coreops, 2, config.pe)
        datapath = build_datapath(lenet_coreops, allocation, config)
        assert datapath.n_clb == 0 and datapath.n_pe == allocation.total_pes
        # a control plan that needs no CLB leaves the datapath as it is
        assert build_netlist(lenet_coreops, allocation, config, clb_blocks=0) == datapath
        data_blocks, data_nets = list(datapath.blocks), list(datapath.nets)
        complete = attach_control(datapath, config, 3)
        assert complete is datapath
        assert complete == build_netlist(lenet_coreops, allocation, config, clb_blocks=3)
        assert list(complete.blocks) == data_blocks + ["clb0", "clb1", "clb2"]
        assert complete.nets[: len(data_nets)] == data_nets
        # CLB nets continue the data nets' numbering
        assert [n.name for n in complete.nets] == [
            f"net{i}" for i in range(len(complete.nets))
        ]

    def test_control_attached_twice_is_a_duplicate(self, lenet_coreops, config):
        from repro.errors import MappingError
        from repro.mapper.netlist import attach_control

        netlist = build_netlist(lenet_coreops, allocate(lenet_coreops, 2, config.pe), config)
        with pytest.raises(MappingError, match="duplicate block name 'clb0'"):
            attach_control(netlist, config, 2)

    def test_batch_checks(self):
        """The builders make their records without the constructors, so
        each batch makes the constructors' checks once."""
        from repro.errors import MappingError
        from repro.mapper.netlist import _add_blocks, _add_nets

        netlist = FunctionBlockNetlist("m")
        with pytest.raises(MappingError, match="unknown block type 'DSP'"):
            _add_blocks(netlist, "DSP", {"d": Block("d", BlockType.PE)})
        _add_blocks(netlist, BlockType.PE, {"a": Block("a", BlockType.PE)})
        assert list(netlist.blocks) == ["a"]
        with pytest.raises(MappingError, match="'net0' has no sinks"):
            _add_nets(netlist, ("net0",), ("a",), ())
        _add_nets(netlist, (), (), ())  # no driver, no net
        assert netlist.nets == [] and netlist.mutation_count == 1

    def test_replication_multiplies_pe_blocks(self):
        g = CoreOpGraph("rep")
        g.add_group(WeightGroup("only", "only", "matmul", 64, 64, 2, macs_per_instance=4096))
        allocation = allocate(g, 8)  # replication 4
        assert allocation.replication == 4
        netlist = build_netlist(g, allocation)
        assert netlist.n_pe == allocation.total_pes
        assert any(b.name.startswith("rep3::") for b in netlist.blocks.values())

    def test_chip_area_positive_and_scales(self, lenet_coreops, config):
        small = build_netlist(lenet_coreops, allocate(lenet_coreops, 1, config.pe), config)
        large = build_netlist(lenet_coreops, allocate(lenet_coreops, 8, config.pe), config)
        assert 0 < small.chip_area_mm2(config) < large.chip_area_mm2(config)
