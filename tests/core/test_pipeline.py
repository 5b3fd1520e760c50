"""Tests of the pass-based compilation pipeline and the stage cache."""

import pytest

from repro.arch.params import FPSAConfig
from repro.core import (
    CompileContext,
    CompileOptions,
    CompilePass,
    FPSACompiler,
    PassDependencyError,
    PassError,
    PassManager,
    StageCache,
    UnknownPassError,
    available_passes,
    default_pass_names,
    register_pass,
    resolve_passes,
)
from repro.core.cache import config_fingerprint, graph_fingerprint
from repro.models import build_lenet
from repro.models.zoo import build_model


class TestPassRegistry:
    def test_builtin_passes_registered(self):
        registry = available_passes()
        for name in ("synthesis", "mapping", "perf", "bounds", "pnr", "bitstream"):
            assert name in registry
        assert "pipeline_sim" not in registry

    def test_unknown_pass_rejected(self):
        with pytest.raises(UnknownPassError, match="nonsense"):
            resolve_passes(["synthesis", "nonsense"])

    def test_default_pass_names_follow_options(self):
        assert default_pass_names(CompileOptions()) == [
            "synthesis", "mapping", "perf", "bounds"
        ]
        full = default_pass_names(
            CompileOptions(run_pnr=True, emit_bitstream=True)
        )
        assert full == ["synthesis", "mapping", "perf", "bounds", "pnr", "bitstream"]

    def test_custom_pass_registration(self):
        @register_pass
        class MarkerPass(CompilePass):
            name = "test_marker"
            requires = ("coreops",)
            provides = ()

            def run(self, ctx):
                ctx.graph.marker = True

        try:
            assert "test_marker" in available_passes()
            graph = build_lenet()
            FPSACompiler(cache=False).compile(
                graph, passes=("synthesis", "test_marker")
            )
            assert graph.marker is True
        finally:
            from repro.core import pipeline as pipeline_module
            pipeline_module._REGISTRY.pop("test_marker", None)

    def test_custom_pass_may_require_initial_artifacts(self):
        class InputAwarePass(CompilePass):
            name = "test_input_aware"
            requires = ("graph", "coreops")
            provides = ()
            seen = None

            def run(self, ctx):
                InputAwarePass.seen = ctx.get("graph").name

        manager = PassManager(resolve_passes(["synthesis"]) + [InputAwarePass()])
        compiler = FPSACompiler(cache=False)
        ctx = CompileContext(graph=build_lenet(), config=compiler.config)
        manager.run(ctx)
        assert InputAwarePass.seen == "LeNet"


class TestPassManagerValidation:
    def test_misordered_pipeline_rejected(self):
        with pytest.raises(PassDependencyError, match="mapping"):
            PassManager(resolve_passes(["mapping", "synthesis"]))

    def test_missing_producer_rejected(self):
        with pytest.raises(PassDependencyError, match="perf"):
            PassManager(resolve_passes(["synthesis", "perf"]))

    def test_duplicate_passes_rejected(self):
        with pytest.raises(PassError, match="duplicate"):
            PassManager(resolve_passes(["synthesis", "synthesis"]))

    def test_compile_with_invalid_pass_subset_raises(self):
        compiler = FPSACompiler(cache=False)
        with pytest.raises(PassDependencyError):
            compiler.compile(build_lenet(), passes=("perf",))


class TestPartialCompile:
    def test_frontend_only_compile(self):
        result = FPSACompiler(cache=False).compile(
            build_lenet(), duplication_degree=2, passes=("synthesis", "mapping")
        )
        assert result.coreops is not None
        assert result.mapping is not None
        assert result.performance is None
        assert result.bounds is None
        assert [t.name for t in result.timings] == ["synthesis", "mapping"]
        # the summary degrades gracefully for partial results
        assert "LeNet" in result.summary()
        # accessors for missing artifacts raise a clear error, not a
        # NoneType AttributeError
        with pytest.raises(ValueError, match="performance"):
            _ = result.throughput_samples_per_s
        with pytest.raises(ValueError, match="performance"):
            _ = result.area_mm2
        # mapping ran, so its accessor works
        assert result.duplication_degree == 2

    def test_the_removed_pipeline_sim_pass_is_a_pass_error(self):
        with pytest.raises(PassError, match="pipeline_sim"):
            FPSACompiler(cache=False).compile(
                build_lenet(), passes=("synthesis", "mapping", "pipeline_sim")
            )

    def test_full_compile_records_timings(self):
        result = FPSACompiler(cache=False).compile(build_lenet())
        assert [t.name for t in result.timings] == [
            "synthesis", "mapping", "perf", "bounds"
        ]
        assert all(t.seconds >= 0 for t in result.timings)
        assert not any(t.cached for t in result.timings)
        assert "pass" in result.timings_table()


class TestStageCache:
    def test_same_graph_twice_skips_synthesis_and_mapping(self):
        cache = StageCache()
        compiler = FPSACompiler(cache=cache)
        first = compiler.compile(build_lenet(), duplication_degree=4)
        second = compiler.compile(build_lenet(), duplication_degree=4)

        first_cached = {t.name for t in first.timings if t.cached}
        second_cached = {t.name for t in second.timings if t.cached}
        assert first_cached == set()
        assert second_cached == {"synthesis", "mapping"}
        assert (first.cache_hits, first.cache_misses) == (0, 4)
        assert (second.cache_hits, second.cache_misses) == (2, 2)
        # cached artifacts produce an identical deployment
        assert second.throughput_samples_per_s == first.throughput_samples_per_s
        assert second.mapping.netlist.n_pe == first.mapping.netlist.n_pe

    def test_changed_options_miss_mapping_but_hit_synthesis(self):
        cache = StageCache()
        compiler = FPSACompiler(cache=cache)
        compiler.compile(build_lenet(), duplication_degree=1)
        result = compiler.compile(build_lenet(), duplication_degree=8)
        cached = {t.name for t in result.timings if t.cached}
        assert cached == {"synthesis"}

    def test_changed_graph_misses_everything(self):
        cache = StageCache()
        compiler = FPSACompiler(cache=cache)
        compiler.compile(build_lenet())
        result = compiler.compile(build_model("MLP-500-100"))
        assert not any(t.cached for t in result.timings)

    def test_use_cache_false_bypasses(self):
        cache = StageCache()
        compiler = FPSACompiler(cache=cache)
        compiler.compile(build_lenet())
        result = compiler.compile(build_lenet(), use_cache=False)
        assert not any(t.cached for t in result.timings)

    def test_cache_disabled_compiler(self):
        compiler = FPSACompiler(cache=False)
        assert compiler.cache is None
        compiler.compile(build_lenet())
        result = compiler.compile(build_lenet())
        assert not any(t.cached for t in result.timings)

    def test_lru_eviction_and_clear(self):
        cache = StageCache(max_entries=1)
        cache.put("a", {"coreops": 1})
        cache.put("b", {"coreops": 2})
        assert "a" not in cache
        assert cache.get("b") == {"coreops": 2}
        cache.clear()
        assert len(cache) == 0
        assert cache.get("b") is None

    def test_mapping_key_tracks_coreops_artifact(self):
        # the mapping cache key must follow the coreops artifact actually
        # consumed, not the graph it was synthesized from
        from repro.mapper.passes import mapping_fingerprint
        from repro.synthesizer.coreop import CoreOpGraph, WeightGroup

        compiler = FPSACompiler(cache=False)
        standard = compiler.compile(build_lenet(), passes=("synthesis",))
        ctx = CompileContext(graph=build_lenet(), config=compiler.config)
        ctx.coreops = standard.coreops
        standard_key = mapping_fingerprint(ctx)

        custom = CoreOpGraph(standard.coreops.name)
        custom.add_group(
            WeightGroup(name="g", source="s", kind="matmul",
                        rows=16, cols=16, reuse=1)
        )
        ctx.coreops = custom
        assert mapping_fingerprint(ctx) != standard_key

    def test_fingerprints_are_stable_and_discriminating(self):
        g1, g2 = build_lenet(), build_lenet()
        assert graph_fingerprint(g1) == graph_fingerprint(g2)
        assert graph_fingerprint(g1) != graph_fingerprint(build_model("MLP-500-100"))
        config = FPSAConfig()
        assert config_fingerprint(config) == config_fingerprint(FPSAConfig())
