"""What a model's core-op graph fixes, whatever the duplication degree.

The pipeline depth and each group-to-group edge's SMB size depend only on
the graph, so every duplication of one model reads them from its derived
view; a counter's LUT cost depends only on its period; ``allocate`` builds
its records in one step.  The reference definitions below are the ones
each of these replaced, kept as the oracle: over the zoo and the fuzz
corpus, the derived answers must equal them.
"""

from __future__ import annotations

import json
import pickle
from pathlib import Path

import pytest

from repro.arch.clb import IterationCounter
from repro.arch.params import FPSAConfig, PEParams, ceil_div
from repro.fuzz import ModelSpec, build_graph
from repro.mapper.allocation import (
    AllocationResult,
    GroupAllocation,
    _balanced_duplication,
    allocate,
)
from repro.mapper.control import ControlPlan, plan_control
from repro.mapper.mapper import SpatialTemporalMapper
from repro.mapper.netlist import smbs_per_edge
from repro.models.zoo import build_model, model_names
from repro.perf.analytic import pipeline_depth
from repro.synthesizer.coreop import DerivedView
from repro.synthesizer.synthesizer import synthesize

CORPUS = sorted((Path(__file__).parents[1] / "fuzz" / "corpus").glob("*.json"))
DUPLICATIONS = (1, 4, 16, 64)


# -- the reference definitions ---------------------------------------------


def reference_pipeline_depth(coreops) -> int:
    preds: dict[str, list[str]] = {}
    for edge in coreops.edges():
        if edge.src in coreops:
            preds.setdefault(edge.dst, []).append(edge.src)
    depth: dict[str, int] = {}
    longest = 1
    for group in coreops.derived().order:
        depth[group.name] = 1 + max((depth[p] for p in preds.get(group.name, ())), default=0)
        longest = max(longest, depth[group.name])
    return longest


def reference_smbs_per_edge(coreops, allocation, config) -> list[int]:
    capacity = config.smb.values_capacity(config.pe.io_bits)
    counts = []
    for edge in coreops.edges():
        n_smbs = 0
        if edge.src in coreops and edge.dst in coreops:
            consumer = allocation.allocation(edge.dst).iterations
            if consumer > 1 or consumer != allocation.allocation(edge.src).iterations:
                n_smbs = ceil_div(max(1, edge.values_per_instance), capacity)
        counts.append(n_smbs)
    return counts


def reference_plan_control(allocation, n_pe, n_smb, config) -> ControlPlan:
    clb = config.clb

    def counter_luts(period: int) -> int:
        return IterationCounter(max(2, period)).lut_cost(clb.lut_inputs)

    luts = n_pe * counter_luts(config.pe.sampling_window)
    iteration_counters = 0
    for alloc in allocation.allocations.values():
        if alloc.iterations > 1:
            iteration_counters += alloc.pes
            luts += alloc.pes * counter_luts(alloc.iterations)
    luts += n_smb * counter_luts(config.smb.values_capacity(config.pe.io_bits))
    return ControlPlan(
        model=allocation.model,
        window_counters=n_pe,
        iteration_counters=iteration_counters,
        buffer_counters=n_smb,
        luts_total=luts,
        clbs_needed=clb.blocks_for_luts(luts),
    )


def reference_allocate(coreops, duplication_degree, pe) -> AllocationResult:
    max_reuse = coreops.max_reuse_degree
    target = ceil_div(max_reuse, min(duplication_degree, max_reuse))
    tiles = coreops.derived().tiling(pe.rows, pe.logical_cols).tiles
    return AllocationResult(
        model=coreops.name,
        duplication_degree=duplication_degree,
        allocations={
            group.name: GroupAllocation(
                group=group.name,
                tiles=tiles[group.name],
                duplication=_balanced_duplication(group, target),
                reuse=group.reuse,
            )
            for group in coreops.groups()
        },
        replication=max(1, duplication_degree // max_reuse),
    )


# -- the graphs ------------------------------------------------------------


def _graphs():
    for name in model_names():
        yield pytest.param(lambda name=name: synthesize(build_model(name)), id=name)
    for path in CORPUS:
        spec = ModelSpec.from_dict(json.loads(path.read_text(encoding="utf-8")))
        yield pytest.param(lambda spec=spec: synthesize(build_graph(spec)), id=path.stem)


@pytest.mark.parametrize("make", _graphs())
def test_the_derived_facts_equal_their_definitions(make):
    config = FPSAConfig()
    coreops = make()
    assert pipeline_depth(coreops) == reference_pipeline_depth(coreops)
    for duplication in DUPLICATIONS:
        allocation = allocate(coreops, duplication, config.pe)
        reference = reference_allocate(coreops, duplication, config.pe)
        assert allocation == reference
        assert [vars(a) for a in allocation.allocations.values()] == [
            vars(a) for a in reference.allocations.values()
        ]
        assert vars(allocation) == vars(reference)
        smbs = smbs_per_edge(coreops, allocation, config)
        assert smbs == reference_smbs_per_edge(coreops, reference, config)
        n_smb = allocation.replication * sum(smbs)
        assert plan_control(allocation, allocation.total_pes, n_smb, config) == (
            reference_plan_control(reference, reference.total_pes, n_smb, config)
        )


def test_a_duplication_sweep_derives_depth_and_smb_sizes_once(monkeypatch):
    depths = []
    depth = DerivedView.__dict__["depth"]
    derive = depth.func
    monkeypatch.setattr(depth, "func", lambda view: depths.append(view) or derive(view))
    sizes = []
    buffer_sizes = DerivedView.buffer_sizes
    monkeypatch.setattr(
        DerivedView,
        "buffer_sizes",
        lambda view, capacity: sizes.append(buffer_sizes(view, capacity)) or sizes[-1],
    )
    coreops = synthesize(build_model("GoogLeNet"))
    mapper = SpatialTemporalMapper()
    for duplication in range(1, 65):
        mapping = mapper.map(coreops, duplication)
        assert pipeline_depth(mapping.coreops) == 53
    assert len(depths) == 1
    assert len(sizes) == 64
    assert all(size is sizes[0] for size in sizes)  # one tuple, built once


def test_a_one_step_allocation_pickles_as_a_constructed_one():
    coreops = synthesize(build_model("LeNet"))
    allocation = allocate(coreops, 4, PEParams())
    loaded = pickle.loads(pickle.dumps(allocation))
    assert loaded == allocation == reference_allocate(coreops, 4, PEParams())
    assert [vars(a) for a in loaded.allocations.values()] == [
        vars(a) for a in allocation.allocations.values()
    ]
