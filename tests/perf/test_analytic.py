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
