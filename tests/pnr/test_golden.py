"""Golden differential tests for the optimized P&R hot path.

Each golden JSON file under ``tests/pnr/golden/`` records the solution
quality (placement HPWL, routed wirelength, critical path) the *seed*
implementation produced for one zoo model at a fixed seed, plus the
tolerance within which an optimized implementation must stay.  Any change
to the placer or router that silently degrades solution quality fails
here, no matter how much faster it is.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.mapper.mapper import SpatialTemporalMapper
from repro.models.zoo import build_model
from repro.perf.analytic import estimate_block_counts
from repro.perf.comm import mean_route_segments
from repro.pnr.pnr import PlaceAndRoute
from repro.synthesizer.synthesizer import synthesize

GOLDEN_DIR = Path(__file__).parent / "golden"
GOLDEN_FILES = sorted(GOLDEN_DIR.glob("*.json"))

#: estimated / routed mean hop over the six golden points: measured 2.30
#: (MLP-500-100 d2) to 4.36 (CIFAR-VGG17 d1), banded with ~10 % either side.
HOP_RESIDUAL_BAND = (2.0, 5.0)


def load_golden(path: Path) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


@pytest.fixture(scope="module")
def pnr_results():
    """Mapping and P&R result per golden case, computed once for all
    assertions."""
    cache: dict[str, tuple] = {}

    def run(golden: dict):
        key = f"{golden['model']}-d{golden['duplication_degree']}"
        if key not in cache:
            graph = build_model(golden["model"])
            mapping = SpatialTemporalMapper().map(
                synthesize(graph), duplication_degree=golden["duplication_degree"]
            )
            flow = PlaceAndRoute(
                channel_width=golden["channel_width"], seed=golden["seed"]
            )
            cache[key] = (mapping, flow.run(mapping.netlist))
        return cache[key]

    return run


def test_golden_files_exist():
    assert GOLDEN_FILES, f"no golden files in {GOLDEN_DIR}"


@pytest.mark.parametrize(
    "path", GOLDEN_FILES, ids=[p.stem for p in GOLDEN_FILES]
)
class TestGoldenQuality:
    def test_netlist_matches_golden(self, path, pnr_results):
        golden = load_golden(path)
        mapping, _ = pnr_results(golden)
        netlist = mapping.netlist
        assert len(netlist.blocks) == golden["blocks"]
        assert len(netlist.nets) == golden["nets"]

    def test_routing_is_legal(self, path, pnr_results):
        golden = load_golden(path)
        _, result = pnr_results(golden)
        assert result.routing.legal

    def test_placement_quality(self, path, pnr_results):
        golden = load_golden(path)
        mapping, result = pnr_results(golden)
        tolerance = golden["tolerance"]["relative_quality"]
        hpwl = result.placement.total_wirelength(mapping.netlist.nets)
        assert hpwl <= golden["placement_hpwl"] * (1.0 + tolerance), (
            f"placement HPWL {hpwl} worse than golden "
            f"{golden['placement_hpwl']} by more than {tolerance:.0%}"
        )

    def test_routed_wirelength_quality(self, path, pnr_results):
        golden = load_golden(path)
        _, result = pnr_results(golden)
        tolerance = golden["tolerance"]["relative_quality"]
        assert result.total_wirelength <= golden["total_wirelength"] * (
            1.0 + tolerance
        ), (
            f"routed wirelength {result.total_wirelength} worse than golden "
            f"{golden['total_wirelength']} by more than {tolerance:.0%}"
        )

    def test_critical_path_quality(self, path, pnr_results):
        golden = load_golden(path)
        _, result = pnr_results(golden)
        budget = (
            golden["critical_path_ns"]
            + golden["tolerance"]["absolute_critical_path_ns"]
        )
        assert result.critical_path_ns <= budget, (
            f"critical path {result.critical_path_ns:.3f} ns worse than "
            f"golden {golden['critical_path_ns']:.3f} ns + tolerance"
        )

    def test_channel_occupancy_within_width(self, path, pnr_results):
        golden = load_golden(path)
        _, result = pnr_results(golden)
        assert result.routing.max_channel_occupancy() <= golden["channel_width"]

    def test_reproducible_within_process(self, path, pnr_results):
        """The same netlist and seed must give bit-identical results."""
        golden = load_golden(path)
        mapping, result = pnr_results(golden)
        again = PlaceAndRoute(
            channel_width=golden["channel_width"], seed=golden["seed"]
        ).run(mapping.netlist)
        assert again.placement.positions == result.placement.positions
        assert again.total_wirelength == result.total_wirelength
        assert again.critical_path_ns == result.critical_path_ns

    def test_estimated_hop_against_the_routed_mean(self, path, pnr_results):
        """The analytic model's hop (:func:`mean_route_segments` of the block
        total the perf pass prices) over the mean the router measured.

        The estimate overstates the routed hop, and the band pins by how
        much.  The routed value is itself a lower bound: a sink's path is
        counted from the tree node where its search branched off, not from
        the driver (the strict xfail
        ``test_timing.py::test_sink_delay_counts_from_the_driver``).  The
        band moves when that is mended with the pin budget, or when the
        residual ledger recalibrates the estimate.
        """
        golden = load_golden(path)
        mapping, result = pnr_results(golden)
        blocks = estimate_block_counts(
            mapping.coreops, mapping.allocation, n_smb=mapping.block_counts()["n_smb"]
        )
        ratio = mean_route_segments(blocks.total) / result.mean_route_segments
        low, high = HOP_RESIDUAL_BAND
        assert low <= ratio <= high, (
            f"estimated hop {mean_route_segments(blocks.total)} over routed "
            f"{result.mean_route_segments:.3f} is {ratio:.2f}, outside {HOP_RESIDUAL_BAND}"
        )
