"""The bitstream census from the datapath's name batches equals the
census that walks a built netlist.

The reference below is the netlist-walking census ``generate_bitstream``
used before it read the name batches, as it was: one crossbar record per
PE block (a run of one group's blocks sized from its tile plan), one
buffer record per SMB block and, without P&R, one estimated routing
record per net.  Records and ``to_json()`` bytes must be equal on every
zoo model at duplication 1, 4 and 64, on one chip, ``"auto"`` chips and
two, and on the fuzz corpus.
"""

import json
import math
from itertools import groupby
from operator import itemgetter
from pathlib import Path

import pytest

from repro.config_gen import (
    BufferConfig,
    CrossbarConfig,
    FPSABitstream,
    RoutingSwitchConfig,
    generate_bitstream,
)
from repro.core.compiler import FPSACompiler
from repro.errors import CapacityError
from repro.fuzz import ModelSpec, build_graph
from repro.mapper.netlist import BlockType
from repro.models.zoo import MODEL_BUILDERS, build_model

CORPUS_FILES = sorted((Path(__file__).parents[1] / "fuzz" / "corpus").glob("*.json"))


def _reference_crossbars(mapping, config):
    configs = []
    pe = config.pe
    cells_per_weight, cell_bits = pe.cells_per_weight, pe.cell_bits
    dims = {}
    plans = mapping.coreops.derived().tiling(pe.rows, pe.logical_cols).plans
    for group, run in groupby(mapping.netlist.blocks_of_type(BlockType.PE), itemgetter(2)):
        if group not in dims:
            plan = plans[group]
            row_sizes = [
                min(plan.max_rows, plan.matrix_rows - r * plan.max_rows)
                for r in range(plan.n_row_tiles)
            ]
            col_sizes = [
                min(plan.max_cols, plan.matrix_cols - c * plan.max_cols)
                for c in range(plan.n_col_tiles)
            ]
            dims[group] = (
                dict(enumerate([size for size in row_sizes for _ in col_sizes])),
                dict(enumerate(col_sizes * len(row_sizes))),
            )
        rows, cols = dims[group]
        configs += [
            CrossbarConfig(name, group, rows[i], cols[i], cells_per_weight, cell_bits)
            for name, _, _, i, _ in run
        ]
    return configs


def _reference_routing(mapping):
    estimated_segments = max(1, int(math.sqrt(len(mapping.netlist.blocks))))
    configs = []
    for sinks, run in groupby(mapping.netlist.nets, itemgetter(2)):
        n_sinks = len(sinks)
        segments = estimated_segments * n_sinks
        switches = (estimated_segments + 1) * n_sinks + 1
        configs += [
            RoutingSwitchConfig(name, driver, n_sinks, segments, switches)
            for name, driver, _, _ in run
        ]
    return configs


def _reference_buffers(mapping, config):
    value_bits = config.pe.io_bits
    capacity = config.smb.values_capacity(value_bits)
    return [
        BufferConfig(name, group, capacity, value_bits)
        for name, _, group, _, _ in mapping.netlist.blocks_of_type(BlockType.SMB)
    ]


def _mappings(result):
    if result.mapping is not None:
        return [result.mapping]
    return [shard.mapping for shard in result.shard_results]


def _compile(graph, **knobs):
    compiler = FPSACompiler(cache=False)
    try:
        return compiler.compile(graph, use_cache=False, **knobs), compiler.config
    except CapacityError:
        pytest.skip("does not fit the requested chips")


def _check_census(result, config):
    for mapping in _mappings(result):
        bitstream = generate_bitstream(mapping, config=config)
        assert "netlist" not in vars(mapping)
        reference = FPSABitstream(
            model=mapping.model,
            duplication_degree=mapping.duplication_degree,
            crossbars=_reference_crossbars(mapping, config),
            routing=_reference_routing(mapping),
            control=bitstream.control,
            buffers=_reference_buffers(mapping, config),
        )
        assert bitstream.crossbars == reference.crossbars
        assert bitstream.routing == reference.routing
        assert bitstream.buffers == reference.buffers
        assert bitstream.to_json() == reference.to_json()


@pytest.mark.parametrize("num_chips", [None, "auto", 2])
@pytest.mark.parametrize("duplication", [1, 4, 64])
@pytest.mark.parametrize("model", sorted(MODEL_BUILDERS))
def test_zoo_census_equals_the_netlist_walk(model, duplication, num_chips):
    result, config = _compile(
        build_model(model), duplication_degree=duplication, num_chips=num_chips
    )
    _check_census(result, config)


@pytest.mark.parametrize("path", CORPUS_FILES, ids=[path.stem for path in CORPUS_FILES])
def test_corpus_census_equals_the_netlist_walk(path):
    spec = ModelSpec.from_dict(json.loads(path.read_text(encoding="utf-8")))
    result, config = _compile(build_graph(spec), num_chips="auto")
    _check_census(result, config)
