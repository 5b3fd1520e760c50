"""Tests of the analytic pipelined performance model."""

import json
from pathlib import Path

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.baselines.fp_prime import FPPrimeArchitecture
from repro.baselines.prime import PrimeArchitecture
from repro.core.compiler import FPSACompiler
from repro.errors import CapacityError
from repro.fuzz import ModelSpec, build_graph, generate_spec
from repro.mapper.allocation import allocate
from repro.models.zoo import build_model, model_names
from repro.perf.analytic import (
    FPSAArchitecture,
    estimate_block_counts,
    evaluate_design_point,
    pipeline_depth,
    sweep_area,
    traffic_values_per_sample,
)

CORPUS_FILES = sorted((Path(__file__).parent.parent / "fuzz" / "corpus").glob("*.json"))


class TestHelpers:
    def test_traffic_positive(self, vgg16_coreops):
        assert traffic_values_per_sample(vgg16_coreops) > 0

    def test_pipeline_depth_at_least_layer_count(self, mlp_coreops):
        # 3 dense + 2 reductions chained
        assert pipeline_depth(mlp_coreops) == 5

    def test_block_count_estimate_matches_netlist(self, config):
        # the exactness oracle of the closed-form counts: the paper's zoo
        # over the sweep grid, whole-chip and sharded
        checked = 0
        for model in model_names():
            graph = build_model(model)
            for duplication in (1, 4, 16, 64):
                for num_chips in (None, "auto"):
                    checked += _assert_counts_are_the_netlists(
                        graph, config, duplication_degree=duplication, num_chips=num_chips
                    )
        assert checked > 7 * 4 * 2  # some points shard

    @pytest.mark.parametrize("path", CORPUS_FILES, ids=[p.stem for p in CORPUS_FILES])
    def test_block_counts_of_the_fuzz_corpus(self, path, config):
        spec = ModelSpec.from_dict(json.loads(path.read_text(encoding="utf-8")))
        for num_chips in (None, "auto"):
            _assert_counts_are_the_netlists(
                build_graph(spec), config, duplication_degree=4, num_chips=num_chips
            )

    @given(
        seed=st.integers(0, 2**32 - 1),
        index=st.integers(0, 60),
        duplication=st.sampled_from([1, 2, 8, 64]),
        num_chips=st.sampled_from([None, "auto", 2]),
    )
    @settings(max_examples=40)
    def test_block_counts_of_generated_models(
        self, config, seed, index, duplication, num_chips
    ):
        graph = build_graph(generate_spec(seed, index))
        try:
            _assert_counts_are_the_netlists(
                graph, config, duplication_degree=duplication, num_chips=num_chips
            )
        except CapacityError:
            assume(False)  # the model fits no such chip count: nothing mapped


def _assert_counts_are_the_netlists(graph, config, **knobs) -> int:
    """Every mapping of one compile counts, in closed form, exactly what its
    netlist instantiates — and the estimator agrees on PEs and SMBs."""
    result = FPSACompiler(config, cache=False).compile(graph, use_cache=False, **knobs)
    mappings = (
        [result.mapping]
        if result.mapping is not None
        else [shard.mapping for shard in result.shard_results]
    )
    for mapping in mappings:
        assert "netlist" not in vars(mapping)
        counts = mapping.block_counts()
        assert counts == mapping.netlist.block_counts(), (graph.name, knobs)
        estimate = estimate_block_counts(mapping.coreops, mapping.allocation, config)
        assert (estimate.n_pe, estimate.n_smb) == (counts["n_pe"], counts["n_smb"])
    return len(mappings)


class TestEvaluateDesignPoint:
    def test_real_between_zero_and_ideal(self, vgg16_coreops, vgg16_graph, vgg16_allocation):
        report = evaluate_design_point(
            vgg16_coreops, vgg16_allocation, vgg16_graph.total_ops(), FPSAArchitecture()
        )
        assert 0 < report.real_ops <= report.ideal_ops <= report.peak_ops

    def test_fpsa_beats_prime_at_same_allocation(self, vgg16_coreops, vgg16_graph, vgg16_allocation):
        ops = vgg16_graph.total_ops()
        fpsa = evaluate_design_point(vgg16_coreops, vgg16_allocation, ops, FPSAArchitecture())
        prime = evaluate_design_point(vgg16_coreops, vgg16_allocation, ops, PrimeArchitecture())
        fp_prime = evaluate_design_point(
            vgg16_coreops, vgg16_allocation, ops, FPPrimeArchitecture()
        )
        # ordering of Figure 6: PRIME < FP-PRIME < FPSA
        assert prime.real_ops < fp_prime.real_ops < fpsa.real_ops

    def test_prime_is_communication_bound(self, vgg16_coreops, vgg16_graph, vgg16_allocation):
        report = evaluate_design_point(
            vgg16_coreops, vgg16_allocation, vgg16_graph.total_ops(), PrimeArchitecture()
        )
        assert report.latency_breakdown.communication_ns > report.latency_breakdown.computation_ns
        assert report.real_ops < 0.5 * report.ideal_ops

    def test_fp_prime_tracks_ideal(self, vgg16_coreops, vgg16_graph, vgg16_allocation):
        report = evaluate_design_point(
            vgg16_coreops, vgg16_allocation, vgg16_graph.total_ops(), FPPrimeArchitecture()
        )
        assert report.real_ops == pytest.approx(report.ideal_ops, rel=0.05)

    def test_vgg16_table3_ballpark(self, vgg16_coreops, vgg16_graph, vgg16_allocation):
        """Table 3: VGG16 at 64x duplication runs at ~2.4K samples/s on
        ~68 mm^2 with ~670 us latency; the reproduction should land within
        ~2x on every metric."""
        report = evaluate_design_point(
            vgg16_coreops, vgg16_allocation, vgg16_graph.total_ops(), FPSAArchitecture()
        )
        assert report.throughput_samples_per_s == pytest.approx(2400, rel=0.6)
        assert report.latency_us == pytest.approx(671.8, rel=0.6)
        assert report.area_mm2 == pytest.approx(68.09, rel=0.6)

    def test_duplication_raises_throughput(self, vgg16_coreops, vgg16_graph, config):
        ops = vgg16_graph.total_ops()
        low = evaluate_design_point(
            vgg16_coreops, allocate(vgg16_coreops, 1, config.pe), ops, FPSAArchitecture()
        )
        high = evaluate_design_point(
            vgg16_coreops, allocate(vgg16_coreops, 16, config.pe), ops, FPSAArchitecture()
        )
        assert high.throughput_samples_per_s > 10 * low.throughput_samples_per_s

    def test_replication_scales_small_models(self, mlp_coreops, mlp_graph, config):
        ops = mlp_graph.total_ops()
        balanced = allocate(mlp_coreops, mlp_coreops.max_reuse_degree, config.pe)
        replicated = allocate(mlp_coreops, 8 * mlp_coreops.max_reuse_degree, config.pe)
        a = evaluate_design_point(mlp_coreops, balanced, ops, FPSAArchitecture())
        b = evaluate_design_point(mlp_coreops, replicated, ops, FPSAArchitecture())
        # 8 replicas process 8 samples in parallel; the slightly longer
        # routed paths of the larger chip absorb a little of the gain.
        ratio = b.throughput_samples_per_s / a.throughput_samples_per_s
        assert 5.0 < ratio <= 8.0

    def test_extra_pes_raise_peak_only(self, mlp_coreops, mlp_graph, mlp_allocation):
        ops = mlp_graph.total_ops()
        base = evaluate_design_point(mlp_coreops, mlp_allocation, ops, FPSAArchitecture())
        padded = evaluate_design_point(
            mlp_coreops, mlp_allocation, ops, FPSAArchitecture(), n_pe_total=1000
        )
        assert padded.peak_ops > base.peak_ops
        assert padded.real_ops == pytest.approx(base.real_ops)


class TestSweepArea:
    def test_unmappable_below_minimum_storage(self, vgg16_coreops, vgg16_graph):
        points = sweep_area(vgg16_coreops, vgg16_graph.total_ops(), FPSAArchitecture(), [1.0])
        assert not points[0].mapped
        assert points[0].real_ops == 0.0

    def test_real_monotone_non_decreasing_for_fpsa(self, vgg16_coreops, vgg16_graph):
        areas = [60.0, 120.0, 500.0, 2000.0]
        points = sweep_area(vgg16_coreops, vgg16_graph.total_ops(), FPSAArchitecture(), areas)
        reals = [p.real_ops for p in points if p.mapped]
        assert all(b >= a * 0.95 for a, b in zip(reals, reals[1:], strict=False))

    def test_prime_real_saturates(self, vgg16_coreops, vgg16_graph):
        areas = [100.0, 1000.0, 10000.0]
        points = sweep_area(vgg16_coreops, vgg16_graph.total_ops(), PrimeArchitecture(), areas)
        assert points[-1].real_ops == pytest.approx(points[-2].real_ops, rel=0.05)
        assert points[-1].ideal_ops > 10 * points[-1].real_ops

    def test_peak_scales_linearly_with_area(self, vgg16_coreops, vgg16_graph):
        points = sweep_area(
            vgg16_coreops, vgg16_graph.total_ops(), FPSAArchitecture(), [100.0, 200.0]
        )
        assert points[1].peak_ops == pytest.approx(2 * points[0].peak_ops, rel=0.02)


#: VGG16 at 64x duplication, per architecture: throughput (samples/s),
#: latency (us), area (mm^2), peak / ideal / real OPS, communication ns.
PINNED_VGG16_D64 = {
    "FPSA": (
        1842.5571745491266, 577.516682, 76.3320314988, 2540090053213262.0,
        252571519875090.84, 57045954894200.375, 692.2499999999999,
    ),
    "PRIME": (
        50.19910974890807, 21088.094536734694, 105.45067811999999, 129587940092015.52,
        12885457720334.848, 1554174920605.0881, 25409.020408163266,
    ),
    "FP-PRIME": (
        416.1941475777834, 2531.43405, 118.8304145688, 129587940092015.52,
        12885457720334.848, 12885457720334.848, 74.54999999999998,
    ),
}

#: per-PE chip area including its share of support blocks, mm^2.
PINNED_AREA_PER_PE = {
    "FPSA": 0.025081317800000003,
    "PRIME": 0.034802203999999996,
    "FP-PRIME": 0.039107186800000006,
}

#: PRIME's Figure 2 sweep of VGG16: (area, n_pe, peak, ideal, real, mapped).
PINNED_PRIME_SWEEP = [
    (10.0, 287, 12274501256240.414, 0.0, 0.0, False),
    (17.78279410038923, 510, 21811831500636.277, 0.0, 0.0, False),
    (31.622776601683793, 908, 38833613730544.586, 0.0, 0.0, False),
    (56.23413251903491, 1615, 69070799752014.875, 0.0, 0.0, False),
    (100.0, 2873, 122873317453584.36, 10266462248722.074, 1554056966043.4822, True),
    (177.82794100389228, 5109, 218503229679903.4, 38558010888330.234, 1550496817897.18, True),
    (316.2277660168379, 9086, 388592747087806.3, 86343579937970.27, 1550455820119.4927, True),
    (562.341325190349, 16158, 691050143896629.4, 171223709368517.3, 1550765220537.7634, True),
    (1000.0, 28733, 1228861479427023.8, 315693714148203.75, 1551307901274.9502, True),
    (1778.2794100389228, 51096, 2185288906581394.5, 594246991337795.4, 1549297597644.1228, True),
    (3162.2776601683795, 90864, 3886098544066303.5, 1010219885274252.0, 1551925639202.5803, True),
    (5623.413251903491, 161582, 6910586975560414.0, 1683699808790420.2, 1553291632751.3545, True),
    (10000.0, 287338, 1.2288956940646718e16, 3367399617580840.5, 1553308465714.8604, True),
]


class TestArchitecturesPinned:
    """The three architectures' figures, exactly as first recorded: a change
    to a PE, a communication model or a fabric formula moves a float."""

    ARCHITECTURES = (FPSAArchitecture, PrimeArchitecture, FPPrimeArchitecture)

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_vgg16_design_point(self, vgg16_coreops, vgg16_graph, vgg16_allocation, architecture):
        arch = architecture()
        report = evaluate_design_point(
            vgg16_coreops, vgg16_allocation, vgg16_graph.total_ops(), arch
        )
        assert (
            report.throughput_samples_per_s,
            report.latency_us,
            report.area_mm2,
            report.peak_ops,
            report.ideal_ops,
            report.real_ops,
            report.latency_breakdown.communication_ns,
        ) == PINNED_VGG16_D64[arch.name]

    @pytest.mark.parametrize("architecture", ARCHITECTURES)
    def test_area_per_pe(self, architecture):
        arch = architecture()
        assert arch.effective_area_per_pe_mm2 == PINNED_AREA_PER_PE[arch.name]

    def test_prime_figure2_sweep(self, vgg16_coreops, vgg16_graph):
        from repro.experiments.fig2 import default_areas

        points = sweep_area(
            vgg16_coreops, vgg16_graph.total_ops(), PrimeArchitecture(), default_areas()
        )
        assert [
            (p.area_mm2, p.n_pe, p.peak_ops, p.ideal_ops, p.real_ops, p.mapped)
            for p in points
        ] == PINNED_PRIME_SWEEP
