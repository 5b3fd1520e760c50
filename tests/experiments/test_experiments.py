"""Tests of the experiment harnesses: every table/figure regenerates and
shows the paper's qualitative findings (orderings, ratios, crossovers)."""

import math

import pytest

from repro.experiments import (
    EXPERIMENTS,
    ablations,
    fig2,
    fig6,
    fig7,
    fig8,
    fig9,
    motivation,
    run_all,
    table1,
    table2,
    table3,
)
from repro.experiments.common import ExperimentResult, format_si, format_table, ratio


class TestCommon:
    def test_format_table(self):
        text = format_table([{"a": 1, "b": 2.5}, {"a": 10, "b": 0.125}])
        assert "a" in text and "10" in text

    def test_format_table_empty(self):
        assert format_table([]) == "(no rows)"

    def test_format_si(self):
        assert format_si(1.5e12, "OPS") == "1.5 TOPS"
        assert format_si(0, "OPS") == "0 OPS"

    def test_ratio_guard(self):
        assert ratio(2.0, 0.0) == float("inf")
        assert ratio(3.0, 1.5) == pytest.approx(2.0)

    def test_experiment_result_roundtrip(self):
        result = ExperimentResult("X", "desc")
        result.add_row(a=1, b=2)
        result.add_note("note")
        assert result.column("a") == [1]
        assert "note" in result.format()


class TestTable1:
    def test_runs_and_reports_all_blocks(self):
        result = table1.run()
        blocks = result.column("block")
        assert any("PE" in b for b in blocks)
        assert any("CLB" in b for b in blocks)
        assert any("SMB" in b for b in blocks)


class TestTable2:
    def test_density_improvement_about_31x(self):
        result = table2.run()
        rows = {row["architecture"]: row for row in result.rows}
        improvement = (
            rows["FPSA"]["density_TOPS_per_mm2"] / rows["PRIME"]["density_TOPS_per_mm2"]
        )
        assert improvement == pytest.approx(30.92, rel=0.03)

    def test_measured_matches_paper_columns(self):
        result = table2.run()
        for row in result.rows:
            if math.isnan(row["paper_density_TOPS_per_mm2"]):
                continue
            assert row["density_TOPS_per_mm2"] == pytest.approx(
                row["paper_density_TOPS_per_mm2"], rel=0.02
            )


@pytest.fixture(scope="module")
def fig2_result():
    return fig2.run(areas_mm2=[10.0, 100.0, 300.0, 1000.0, 3000.0, 10000.0])


@pytest.fixture(scope="module")
def fig6_result():
    return fig6.run(areas_mm2=[100.0, 300.0, 1000.0, 3000.0, 10000.0])


class TestFig2:
    def test_peak_dominates_ideal_dominates_real(self, fig2_result):
        for row in fig2_result.rows:
            if not row["mapped"]:
                continue
            assert row["peak_ops"] >= row["ideal_ops"] >= row["real_ops"] > 0

    def test_real_saturates_with_area(self, fig2_result):
        mapped = [r for r in fig2_result.rows if r["mapped"]]
        assert mapped[-1]["real_ops"] == pytest.approx(mapped[-2]["real_ops"], rel=0.1)

    def test_communication_gap_at_least_two_orders(self, fig2_result):
        last = [r for r in fig2_result.rows if r["mapped"]][-1]
        assert last["ideal_ops"] / last["real_ops"] > 100

    def test_ideal_superlinear_region(self, fig2_result):
        mapped = [r for r in fig2_result.rows if r["mapped"]]
        first, second = mapped[0], mapped[1]
        area_ratio = second["area_mm2"] / first["area_mm2"]
        perf_ratio = second["ideal_ops"] / first["ideal_ops"]
        assert perf_ratio > area_ratio

    def test_small_areas_unmappable(self, fig2_result):
        assert fig2_result.rows[0]["mapped"] is False


class TestFig6:
    def test_architecture_ordering_at_every_area(self, fig6_result):
        for row in fig6_result.rows:
            if row["PRIME_real_ops"] == 0:
                continue
            assert row["FPSA_real_ops"] > row["PRIME_real_ops"]
            assert row["FP-PRIME_real_ops"] > row["PRIME_real_ops"]

    def test_speedup_reaches_hundreds(self, fig6_result):
        speedups = [
            row["speedup_FPSA"] for row in fig6_result.rows if row["PRIME_real_ops"] > 0
        ]
        assert max(speedups) > 300

    def test_speedup_grows_with_area(self, fig6_result):
        speedups = [
            row["speedup_FPSA"] for row in fig6_result.rows if row["PRIME_real_ops"] > 0
        ]
        assert speedups[-1] > speedups[0]

    def test_fp_prime_close_to_its_ideal(self, fig6_result):
        # FP-PRIME shares PRIME's PE, so its ideal is PRIME's ideal; its real
        # performance should sit well above PRIME's bus-bound real value.
        for row in fig6_result.rows:
            if row["PRIME_real_ops"] == 0:
                continue
            assert row["speedup_FP-PRIME"] > 2


class TestFig7:
    @pytest.fixture(scope="class")
    def result(self):
        return fig7.run()

    def test_prime_communication_dominates(self, result):
        rows = {r["architecture"]: r for r in result.rows}
        assert rows["PRIME"]["communication_ns"] > rows["PRIME"]["computation_ns"]

    def test_fp_prime_communication_negligible(self, result):
        rows = {r["architecture"]: r for r in result.rows}
        assert rows["FP-PRIME"]["communication_ns"] < 0.1 * rows["FP-PRIME"]["computation_ns"]

    def test_fpsa_communication_exceeds_computation(self, result):
        rows = {r["architecture"]: r for r in result.rows}
        assert rows["FPSA"]["communication_ns"] > rows["FPSA"]["computation_ns"]

    def test_values_within_factor_two_of_paper(self, result):
        for row in result.rows:
            assert row["computation_ns"] == pytest.approx(row["paper_computation_ns"], rel=0.05)
            assert row["communication_ns"] == pytest.approx(
                row["paper_communication_ns"], rel=1.0
            )


class TestFig8:
    @pytest.fixture(scope="class")
    def result(self):
        return fig8.run(models=("MLP-500-100", "LeNet", "VGG16", "GoogLeNet"))

    def test_performance_rises_with_duplication(self, result):
        by_model: dict[str, list] = {}
        for row in result.rows:
            by_model.setdefault(row["model"], []).append(row)
        for rows in by_model.values():
            perfs = [r["real_ops"] for r in rows]
            assert perfs[-1] > perfs[0]

    def test_superlinear_scaling_in_area(self, result):
        """Figure 8's headline: performance grows much faster than area."""
        for model in ("VGG16", "GoogLeNet"):
            rows = [r for r in result.rows if r["model"] == model]
            perf_gain = rows[-1]["real_ops"] / rows[0]["real_ops"]
            area_gain = rows[-1]["area_mm2"] / rows[0]["area_mm2"]
            assert perf_gain > 3 * area_gain

    def test_spatial_bound_constant_temporal_rises(self, result):
        vgg_rows = [r for r in result.rows if r["model"] == "VGG16"]
        spatial = {round(r["spatial_bound"]) for r in vgg_rows}
        assert len(spatial) == 1
        temporal = [r["temporal_bound"] for r in vgg_rows]
        assert temporal[-1] > temporal[0]

    def test_bounds_ordering(self, result):
        for row in result.rows:
            assert row["peak_density"] >= row["spatial_bound"] * 0.999
            assert row["spatial_bound"] >= row["temporal_bound"] * 0.999

    def test_mlp_bounds_coincide(self, result):
        mlp_rows = [r for r in result.rows if r["model"] == "MLP-500-100"]
        final = mlp_rows[-1]
        assert final["temporal_bound"] == pytest.approx(final["spatial_bound"], rel=0.05)

    def test_geomean_notes_present(self, result):
        assert any("geometric-mean" in note for note in result.notes)


class TestFig9:
    @pytest.fixture(scope="class")
    def result(self):
        return fig9.run(montecarlo=False)

    def test_add_approaches_full_precision(self, result):
        add_rows = [r for r in result.rows if r["method"] == "add"]
        assert add_rows[-1]["normalized_accuracy"] > 0.95

    def test_splice_stuck_near_variation_bound(self, result):
        splice_rows = [r for r in result.rows if r["method"] == "splice" and r["n_cells"] >= 2]
        assert all(r["normalized_accuracy"] < 0.8 for r in splice_rows)

    def test_paper_anchor_points(self, result):
        for row in result.rows:
            anchor = row["paper_anchor"]
            if anchor == anchor:  # not NaN
                assert row["normalized_accuracy"] == pytest.approx(anchor, abs=0.06)

    def test_add_beats_splice_at_every_cell_count_above_one(self, result):
        add = {r["n_cells"]: r["normalized_accuracy"] for r in result.rows if r["method"] == "add"}
        splice = {
            r["n_cells"]: r["normalized_accuracy"] for r in result.rows if r["method"] == "splice"
        }
        for n in add:
            if n > 1:
                assert add[n] > splice[n]

    def test_montecarlo_column_populated_when_enabled(self):
        result = fig9.run(n_cells_list=(1, 8), montecarlo=True, montecarlo_trials=1)
        values = [r["montecarlo_accuracy"] for r in result.rows]
        assert all(v == v for v in values)  # no NaN


class TestTable3:
    @pytest.fixture(scope="class")
    def result(self):
        return table3.run(models=("LeNet", "AlexNet", "VGG16"))

    def test_rows_have_paper_references(self, result):
        for row in result.rows:
            assert row["paper_area_mm2"] == row["paper_area_mm2"]

    def test_imagenet_models_within_2x_of_paper(self, result):
        for row in result.rows:
            if row["model"] in ("AlexNet", "VGG16"):
                assert 0.5 < row["throughput_samples_s"] / row["paper_throughput"] < 2.0
                assert 0.3 < row["latency_us"] / row["paper_latency_us"] < 3.0
                assert 0.5 < row["area_mm2"] / row["paper_area_mm2"] < 2.0

    def test_throughput_ordering_matches_model_size(self, result):
        by_model = {r["model"]: r for r in result.rows}
        assert (
            by_model["LeNet"]["throughput_samples_s"]
            > by_model["AlexNet"]["throughput_samples_s"]
            > by_model["VGG16"]["throughput_samples_s"]
        )


class TestAblations:
    def test_spike_transmission_tradeoff(self):
        result = ablations.run_spike_transmission()
        rows = {r["scheme"]: r for r in result.rows}
        train = rows["spike train (FPSA)"]
        count = rows["spike count (PipeLayer-style)"]
        assert train["comm_latency_ns"] > count["comm_latency_ns"]
        assert train["streaming_handoff_cycles"] < count["streaming_handoff_cycles"]
        assert train["buffer_bits_per_value"] < count["buffer_bits_per_value"]

    def test_pooling_synthesis_consumes_large_pe_share(self):
        result = ablations.run_pooling_synthesis(duplication_degree=16)
        synthesized = result.rows[0]
        assert synthesized["pooling_share"] > 0.3
        assert result.rows[1]["pooling_pes"] == 0

    def test_speedup_decomposition_ordering(self):
        result = ablations.run_speedup_decomposition()
        rows = {r["architecture"]: r for r in result.rows}
        assert rows["FP-PRIME"]["speedup_over_PRIME"] > 1
        assert rows["FPSA"]["speedup_over_PRIME"] > rows["FP-PRIME"]["speedup_over_PRIME"]

    def test_chip_partition_sweep_smallest(self):
        result = ablations.run_chip_partition_sweep(
            "LeNet", duplication_degree=1, chip_counts=(1, 2)
        )
        one, two = result.rows
        assert (one["chips"], two["chips"]) == (1, 2)
        assert one["total_pes"] == two["total_pes"] > two["max_chip_pes"] > 0
        assert (one["cut_edges"], one["cut_values_per_sample"]) == (0, 0)
        assert two["cut_edges"] > 0 and two["cut_values_per_sample"] > 0
        # the cut values cross a serial link
        assert two["latency_us"] > one["latency_us"] > 0


class TestMotivation:
    def test_vgg16_imbalance_notes(self):
        result = motivation.run("VGG16")
        assert any("first two conv layers" in note for note in result.notes)
        assert any("imbalance" in note for note in result.notes)

    def test_mlp_is_balanced(self):
        result = motivation.run("MLP-500-100")
        shares = [(row["weight_share"], row["ops_share"]) for row in result.rows]
        for weight_share, ops_share in shares:
            assert ops_share == pytest.approx(weight_share, rel=1e-6)


class TestRunner:
    def test_registry_contains_all_paper_artifacts(self):
        for key in ("table1", "table2", "table3", "fig2", "fig6", "fig7", "fig8", "fig9"):
            assert key in EXPERIMENTS

    def test_run_all_selected(self):
        results = run_all(["table1", "table2"])
        assert set(results) == {"table1", "table2"}

    def test_unknown_experiment_rejected(self):
        from repro.errors import InvalidRequestError

        with pytest.raises(InvalidRequestError):
            run_all(["figure42"])

    def test_unknown_experiment_rejected_before_any_runs(self):
        # validation happens up front: a bad name alongside good ones runs nothing
        from repro.errors import InvalidRequestError

        with pytest.raises(InvalidRequestError, match="figure42"):
            run_all(["table1", "figure42"])
