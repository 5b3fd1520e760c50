"""End-to-end behaviour of the multi-chip partitioned compilation flow."""

from __future__ import annotations

import pytest

from repro.core.api import deploy_model
from repro.core.cache import StageCache, netlist_fingerprint
from repro.errors import CapacityError, InvalidRequestError
from repro.mapper.mapper import SpatialTemporalMapper
from repro.service import CompileRequest, FPSAClient
from repro.service.schemas import CompileResponse, ResultSummary


class TestOneChipIdentity:
    def test_bit_identical_to_unpartitioned_pipeline(self):
        """num_chips=1 must not change a single artifact (fixed seed)."""
        legacy = deploy_model(
            "LeNet", duplication_degree=4, run_pnr=True, seed=11, use_cache=False
        )
        one = deploy_model(
            "LeNet", duplication_degree=4, run_pnr=True, seed=11,
            num_chips=1, use_cache=False,
        )
        assert netlist_fingerprint(one.mapping.netlist) == netlist_fingerprint(
            legacy.mapping.netlist
        )
        assert one.mapping.allocation == legacy.mapping.allocation
        assert one.performance == legacy.performance
        assert one.bounds == legacy.bounds
        assert one.pnr.total_wirelength == legacy.pnr.total_wirelength
        assert one.pnr.critical_path_ns == legacy.pnr.critical_path_ns
        assert one.pnr.placement.positions == legacy.pnr.placement.positions

    def test_identity_partition_metadata(self):
        result = deploy_model("LeNet", num_chips=1, use_cache=False)
        assert result.partition is not None
        assert result.partition.num_chips == 1
        assert result.partition.cut_size == 0
        assert result.shard_results is None
        assert result.partition.shards[0].coreops is result.coreops


class TestMultiChipCompile:
    def test_shards_cover_the_model(self):
        result = deploy_model(
            "CIFAR-VGG17", duplication_degree=64, num_chips=2, use_cache=False
        )
        plan = result.partition
        assert plan.num_chips == 2
        assert len(result.shard_results) == 2
        # the union of the shard netlists carries every allocated PE
        total_pes = sum(r.mapping.netlist.n_pe for r in result.shard_results)
        assert total_pes == plan.total_pes
        # combined report spans both chips
        assert result.performance is not None
        assert result.performance.n_pe == total_pes
        assert result.bounds is not None
        assert result.mapping is None  # no single-chip netlist exists

    def test_cut_traffic_caps_throughput(self):
        """The inter-chip link ceiling must bind when the cut is busy."""
        single = deploy_model(
            "CIFAR-VGG17", duplication_degree=64, num_chips=1, use_cache=False
        )
        split = deploy_model(
            "CIFAR-VGG17", duplication_degree=64, num_chips=2, use_cache=False
        )
        assert split.partition.cut_values_per_sample > 0
        assert (
            split.performance.throughput_samples_per_s
            <= single.performance.throughput_samples_per_s
        )
        assert split.performance.latency_us >= single.performance.latency_us

    def test_shard_jobs_pool_matches_sequential(self):
        sequential = deploy_model(
            "CIFAR-VGG17", duplication_degree=16, num_chips=2, use_cache=False
        )
        pooled = deploy_model(
            "CIFAR-VGG17", duplication_degree=16, num_chips=2,
            shard_jobs=2, use_cache=False,
        )
        assert pooled.performance == sequential.performance
        assert pooled.bounds == sequential.bounds
        for a, b in zip(sequential.shard_results, pooled.shard_results, strict=True):
            assert netlist_fingerprint(a.mapping.netlist) == netlist_fingerprint(
                b.mapping.netlist
            )

    def test_compile_shards_rejects_jobs_below_one(self):
        from repro.arch.params import FPSAConfig
        from repro.core.pipeline import CompileOptions
        from repro.partition import compile_shards

        plan = deploy_model("LeNet", num_chips=2, use_cache=False).partition
        with pytest.raises(InvalidRequestError):
            compile_shards(plan, FPSAConfig(), CompileOptions(), [], 0.0, jobs=0)

    def test_partitioned_pnr_runs_per_shard(self):
        for model, duplication, chips, seed in (("LeNet", 64, 2, 5), ("CIFAR-VGG17", 1, 4, 0)):
            result = deploy_model(
                model, duplication_degree=duplication, num_chips=chips,
                run_pnr=True, seed=seed, use_cache=False,
            )
            assert result.pnr is None  # no whole-model netlist to place
            for shard_result in result.shard_results:
                assert shard_result.pnr is not None
                assert shard_result.pnr.total_wirelength > 0
            # one P&R timing row per shard, and the cut it cost in the summary
            assert [t.name for t in result.timings if t.name.startswith("pnr")] == [
                f"pnr@chip{chip}" for chip in range(chips)
            ]
            partition = ResultSummary.from_result(result).partition
            assert partition["cut_size"] >= 1
            assert partition["cut_values_per_sample"] > 0

    def test_shards_hit_the_stage_cache_independently(self):
        cache = StageCache()
        client = FPSAClient(cache=cache)
        request = CompileRequest(
            model="CIFAR-VGG17", duplication_degree=64, num_chips=2
        )
        cold = client.compile(request)
        warm = client.compile(request)
        assert cold.ok and warm.ok
        assert warm.timings.cache_hits > cold.timings.cache_hits
        # every cacheable backend stage of the warm compile is a per-shard
        # cache hit (perf/bounds are cheap and intentionally uncached)
        warm_mappings = [
            p for p in warm.timings.passes if p.name.startswith("mapping@chip")
        ]
        assert warm_mappings and all(p.cached for p in warm_mappings)

    def test_explicit_passes_conflict_with_num_chips(self):
        with pytest.raises(InvalidRequestError):
            deploy_model("LeNet", num_chips=2, passes=("synthesis", "mapping"))


class TestCapacityPreflight:
    def test_oversized_model_raises_on_one_chip(self):
        with pytest.raises(CapacityError) as err:
            deploy_model("VGG16", num_chips=1, use_cache=False)
        details = err.value.details
        assert details["required_pes"] > details["available_pes"]

    def test_auto_mode_shards_the_oversized_model(self):
        """The acceptance path: CapacityError turns into an automatic
        shard-it compile under num_chips='auto'."""
        result = deploy_model("VGG16", num_chips="auto", use_cache=False)
        plan = result.partition
        assert plan.num_chips >= 2
        capacity = plan.capacity_pes_per_chip
        for shard in plan.shards:
            assert shard.pes <= capacity
        assert result.performance is not None

    def test_mapper_preflight_check_reports_counts(self, lenet_coreops, config):
        mapper = SpatialTemporalMapper(config)
        with pytest.raises(CapacityError) as err:
            mapper.map(lenet_coreops, duplication_degree=1, max_pes=3)
        details = err.value.details
        assert details["available_pes"] == 3
        assert details["required_pes"] > 3

    def test_legacy_flow_is_not_capacity_checked(self):
        # VGG16 exceeds one chip's capacity, but the classic single-chip
        # pipeline (num_chips unset) keeps its historical behaviour
        result = deploy_model("VGG16", passes=("synthesis", "mapping"))
        assert result.mapping is not None


class TestPartitionWire:
    def test_summary_partition_round_trips(self):
        response = FPSAClient(cache=False).compile(
            CompileRequest(model="CIFAR-VGG17", duplication_degree=64, num_chips=2)
        )
        assert response.ok
        partition = response.summary.partition
        assert partition["num_chips"] == 2
        assert partition["cut_size"] >= 1
        assert partition["cut_values_per_sample"] > 0
        assert len(partition["shards"]) == 2
        for shard in partition["shards"]:
            assert 0 < shard["utilization"] <= 1.0
            assert shard["blocks"]["n_pe"] > 0

        # JSON round-trip preserves the partition section exactly
        rehydrated = CompileResponse.from_json(response.to_json())
        assert rehydrated.summary.partition == partition
        assert rehydrated.request.num_chips == 2

    def test_request_round_trips_auto_chips(self):
        request = CompileRequest(model="VGG16", num_chips="auto", shard_jobs=2)
        again = CompileRequest.from_json(request.to_json())
        assert again.num_chips == "auto"
        assert again.shard_jobs == 2
        assert again.fingerprint() == request.fingerprint()

    def test_invalid_num_chips_rejected(self):
        with pytest.raises(InvalidRequestError):
            CompileRequest(model="LeNet", num_chips=0)
        with pytest.raises(InvalidRequestError):
            CompileRequest(model="LeNet", num_chips="many")
        with pytest.raises(InvalidRequestError):
            CompileRequest(model="LeNet", shard_jobs=0)

    def test_capacity_error_crosses_the_wire(self):
        response = FPSAClient(cache=False).compile(
            CompileRequest(model="VGG16", num_chips=1)
        )
        assert not response.ok
        assert response.error.code == "capacity_error"
        assert response.error.details["required_pes"] > 0
        with pytest.raises(CapacityError):
            response.raise_for_status()

    def test_summary_identity_partition_over_the_wire(self):
        response = FPSAClient(cache=False).compile(
            CompileRequest(model="LeNet", num_chips=1)
        )
        assert response.ok
        partition = response.summary.partition
        assert partition["num_chips"] == 1
        assert partition["cut_size"] == 0
        summary = ResultSummary.from_dict(response.summary.to_dict())
        assert summary.partition == partition
