"""Tests of the end-to-end compiler API."""

import pytest

import repro
from repro.core.compiler import FPSACompiler
from repro.errors import InvalidRequestError
from repro.models import build_lenet


class TestFPSACompiler:
    @pytest.fixture(scope="class")
    def lenet_deployment(self):
        compiler = FPSACompiler()
        return compiler.compile(build_lenet(), duplication_degree=4)

    def test_deployment_result_consistency(self, lenet_deployment):
        result = lenet_deployment
        assert result.model == "LeNet"
        assert result.duplication_degree == 4
        assert result.mapping.netlist.n_pe == result.mapping.allocation.total_pes
        assert result.performance.model == "LeNet"
        assert result.bounds.peak_density >= result.bounds.spatial_bound

    def test_one_throughput_and_one_latency(self, lenet_deployment):
        # the analytic model is the only performance model in the result
        assert not hasattr(lenet_deployment, "pipeline")
        assert not hasattr(lenet_deployment.mapping, "schedule")
        assert lenet_deployment.throughput_samples_per_s > 0
        assert lenet_deployment.latency_us > 0

    @pytest.mark.parametrize("knob", ["detailed_schedule", "max_schedule_reuse"])
    def test_detailed_schedule_knobs_are_unknown(self, knob):
        with pytest.raises(InvalidRequestError) as excinfo:
            FPSACompiler(cache=False).compile(build_lenet(), **{knob: 1})
        assert excinfo.value.details["unknown"] == [knob]

    def test_summary_readable(self, lenet_deployment):
        text = lenet_deployment.summary()
        assert "LeNet" in text
        assert "throughput" in text
        assert "mm^2" in text

    def test_pe_budget_path(self):
        compiler = FPSACompiler()
        result = compiler.compile(build_lenet(), pe_budget=60)
        assert result.mapping.netlist.n_pe <= 60

    def test_pnr_path(self):
        compiler = FPSACompiler()
        result = compiler.compile(
            build_lenet(), duplication_degree=1, run_pnr=True, pnr_channel_width=24
        )
        assert result.pnr is not None
        assert result.pnr.routing.legal

    def test_energy_report(self, lenet_deployment):
        report = lenet_deployment.energy()
        assert report.total_pj > 0
        # the ReRAM PEs dominate the dynamic energy of a compute-bound CNN
        assert report.pe_pj > report.clb_pj
        efficiency = lenet_deployment.energy_efficiency_tops_per_w()
        assert 1.0 < efficiency < 1e4  # ReRAM PIM designs report O(10-1000) TOPS/W

    def test_top_level_deploy_helpers(self):
        result = repro.deploy_model("MLP-500-100", duplication_degree=2)
        assert result.model == "MLP-500-100"
        assert result.throughput_samples_per_s > 0
        assert repro.deploy(build_lenet()).model == "LeNet"

    def test_version_exposed(self):
        assert repro.__version__
