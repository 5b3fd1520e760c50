"""Tests of the in-process FPSAClient."""

import pytest

from repro.arch.params import FPSAConfig
from repro.core.cache import StageCache, fingerprint
from repro.errors import CapacityError, UnknownModelError
from repro.service import CompileRequest, FPSAClient
from repro.service import jobs as jobs_module
from repro.service.client import _default_config, serve_request


class TestCompile:
    def test_compile_accepts_request_name_and_dict(self):
        client = FPSAClient()
        for request in (
            CompileRequest(model="MLP-500-100"),
            "MLP-500-100",
            {"model": "MLP-500-100"},
        ):
            response = client.compile(request)
            assert response.ok
            assert response.request.model == "MLP-500-100"

    def test_compile_kwargs_with_name(self):
        response = FPSAClient().compile("MLP-500-100", duplication_degree=2)
        assert response.request.duplication_degree == 2
        assert response.summary.duplication_degree == 2

    def test_compile_never_raises_on_failure(self):
        response = FPSAClient().compile(CompileRequest(model="MLP-500-100", pe_budget=1))
        assert not response.ok
        assert response.error.code == "capacity_error"

    def test_client_shares_cache_across_compiles(self):
        client = FPSAClient(cache=StageCache())
        request = CompileRequest(model="MLP-500-100", duplication_degree=3)
        assert client.compile(request).timings.cache_hits == 0
        assert client.compile(request).timings.cache_hits > 0


class TestServeRequest:
    def test_default_config_is_hashed_once(self, monkeypatch):
        """``config=None`` serves share one frozen default: its fingerprint is
        computed once, not once per request."""
        hashed = []

        def spy(*parts):
            if any(isinstance(part, FPSAConfig) for part in parts):
                hashed.append(parts)
            return fingerprint(*parts)

        monkeypatch.setattr("repro.core.cache.fingerprint", spy)
        _default_config.cache_clear()
        request = CompileRequest(model="MLP-500-100", duplication_degree=5)
        first, second = (serve_request(request, cache=StageCache()) for _ in range(2))
        assert first.ok and second.ok
        assert first.result.mapping.config is second.result.mapping.config
        assert len(hashed) == 1


class TestDeploy:
    def test_deploy_returns_live_artifacts(self):
        result = FPSAClient().deploy(CompileRequest(model="MLP-500-100"))
        assert result.mapping is not None
        assert result.performance is not None
        assert result.throughput_samples_per_s > 0

    def test_deploy_raises_typed_errors(self):
        client = FPSAClient()
        with pytest.raises(CapacityError):
            client.deploy(CompileRequest(model="MLP-500-100", pe_budget=1))
        with pytest.raises(UnknownModelError):
            client.deploy("NotAModel")

    def test_synthesis_options_flow_through(self):
        client = FPSAClient()
        with_pool = client.deploy(
            CompileRequest(model="LeNet", passes=("synthesis",),
                           synthesis_options={"lower_pooling": True})
        )
        without_pool = client.deploy(
            CompileRequest(model="LeNet", passes=("synthesis",),
                           synthesis_options={"lower_pooling": False})
        )
        pool_groups = [
            g for g in with_pool.coreops.groups()
            if g.kind in ("pool_max", "pool_avg")
        ]
        assert pool_groups
        assert len(without_pool.coreops) < len(with_pool.coreops)


class TestCompileBatch:
    def test_sequential_batch_preserves_order(self):
        responses = FPSAClient().compile_batch(
            [CompileRequest(model="MLP-500-100", duplication_degree=d) for d in (1, 2)]
        )
        assert [r.request.duplication_degree for r in responses] == [1, 2]
        assert all(r.ok for r in responses)

    def test_parallel_batch_matches_sequential(self):
        requests = [
            CompileRequest(model="MLP-500-100", duplication_degree=d) for d in (1, 2)
        ]
        sequential = FPSAClient().compile_batch(requests, jobs=1)
        parallel = FPSAClient().compile_batch(requests, jobs=2)
        for a, b in zip(sequential, parallel, strict=True):
            assert a.request == b.request
            assert a.summary.performance == b.summary.performance
            assert a.summary.blocks == b.summary.blocks

    def test_parallel_batch_past_the_job_bound_is_read_whole(self, monkeypatch):
        # room for 2 finished jobs: repeats fan out from their compile, or
        # are answered at submit, long before the batch is read back
        monkeypatch.setattr(jobs_module, "REMEMBERED_JOBS", 2)
        requests = [
            CompileRequest(model="MLP-500-100", duplication_degree=d, tags={"n": str(n)})
            for n, d in enumerate((1, 2) * 4)
        ]
        responses = FPSAClient().compile_batch(requests, jobs=2)
        assert [r.request for r in responses] == requests
        assert all(r.ok for r in responses)

    def test_batch_mixes_ok_and_error(self):
        responses = FPSAClient().compile_batch([
            CompileRequest(model="MLP-500-100"),
            CompileRequest(model="MLP-500-100", pe_budget=1),
        ])
        assert [r.ok for r in responses] == [True, False]
