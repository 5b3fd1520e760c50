"""Tests of the subgraph dedup cache: canonical hashing, the store, and
the bit-identity contract of splice-on-hit compiles."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.core.cache import CacheStats, StageCache
from repro.core.compiler import FPSACompiler
from repro.core.dedup import (
    DEDUP_STORE_ENV,
    SubgraphStore,
    clear_default_dedup_store,
    default_dedup_store,
    graph_digest,
    group_digest,
    subgraph_digests,
)
from repro.core.shared_cache import SharedStageCache
from repro.errors import InvalidRequestError
from repro.fuzz.oracle import strip_seconds
from repro.models.zoo import build_model
from repro.service.schemas import ResultSummary
from repro.synthesizer.coreop import (
    GRAPH_INPUT,
    GRAPH_OUTPUT,
    CoreOpGraph,
    WeightGroup,
)


# ---------------------------------------------------------------------------
# graph construction helpers + hypothesis strategies
# ---------------------------------------------------------------------------

_group_body = st.tuples(
    st.sampled_from(("matmul", "reduce", "pool_max", "add")),
    st.integers(min_value=1, max_value=512),   # rows
    st.integers(min_value=1, max_value=512),   # cols
    st.integers(min_value=1, max_value=64),    # reuse
    st.sampled_from((1.0, 0.5, 0.25)),         # density
    st.integers(min_value=0, max_value=10_000),  # macs_per_instance
)


@st.composite
def _graph_specs(draw):
    """A random DAG spec: group bodies plus forward edges (i < j)."""
    n = draw(st.integers(min_value=1, max_value=6))
    bodies = [draw(_group_body) for _ in range(n)]
    edges = []
    for j in range(1, n):
        for i in range(j):
            if draw(st.booleans()):
                edges.append((i, j, draw(st.integers(min_value=0, max_value=64))))
    # boundary edges keep the graph shaped like real synthesizer output
    edges.append((-1, 0, draw(st.integers(min_value=1, max_value=64))))
    edges.append((n - 1, -2, draw(st.integers(min_value=1, max_value=64))))
    return bodies, edges


def _build(bodies, edges, names=None, group_order=None, edge_order=None):
    """Materialize a graph spec, optionally renaming groups and permuting
    the insertion order of groups and edges."""
    n = len(bodies)
    names = names or [f"layer{i}/op" for i in range(n)]
    graph = CoreOpGraph("m")
    for i in group_order or range(n):
        kind, rows, cols, reuse, density, macs = bodies[i]
        graph.add_group(
            WeightGroup(
                name=names[i],
                source=names[i].split("/")[0],
                kind=kind,
                rows=rows,
                cols=cols,
                reuse=reuse,
                density=density,
                macs_per_instance=macs,
            )
        )
    def endpoint(index):
        if index == -1:
            return GRAPH_INPUT
        if index == -2:
            return GRAPH_OUTPUT
        return names[index]
    ordered = [edges[k] for k in (edge_order or range(len(edges)))]
    for src, dst, values in ordered:
        graph.add_edge(endpoint(src), endpoint(dst), values)
    return graph


class TestCanonicalHashing:
    @given(_graph_specs())
    def test_digest_invariant_under_renaming(self, spec):
        bodies, edges = spec
        a = _build(bodies, edges)
        b = _build(bodies, edges, names=[f"zz{i}/other" for i in range(len(bodies))])
        assert graph_digest(a) == graph_digest(b)
        # per-group cone digests line up pairwise too
        da, db = subgraph_digests(a), subgraph_digests(b)
        assert sorted(da.values()) == sorted(db.values())

    @given(_graph_specs(), st.randoms(use_true_random=False))
    def test_digest_invariant_under_insertion_order(self, spec, rng):
        bodies, edges = spec
        a = _build(bodies, edges)
        group_order = list(range(len(bodies)))
        edge_order = list(range(len(edges)))
        rng.shuffle(group_order)
        rng.shuffle(edge_order)
        b = _build(bodies, edges, group_order=group_order, edge_order=edge_order)
        assert graph_digest(a) == graph_digest(b)

    @given(_graph_specs(), st.integers(min_value=0, max_value=5))
    def test_distinct_structure_changes_the_digest(self, spec, which):
        bodies, edges = spec
        index = which % len(bodies)
        kind, rows, cols, reuse, density, macs = bodies[index]
        mutated = list(bodies)
        mutated[index] = (kind, rows + 1, cols, reuse, density, macs)
        assert graph_digest(_build(bodies, edges)) != graph_digest(
            _build(mutated, edges)
        )

    def test_group_digest_ignores_name_and_source(self):
        a = WeightGroup("a/x", "a", "matmul", 8, 8, 2)
        b = WeightGroup("b/y", "b", "matmul", 8, 8, 2)
        c = WeightGroup("a/x", "a", "matmul", 8, 9, 2)
        assert group_digest(a) == group_digest(b)
        assert group_digest(a) != group_digest(c)

    def test_cyclic_graph_gets_deterministic_fallback_digests(self):
        graph = CoreOpGraph("cyclic")
        for name in ("a/x", "b/x"):
            graph.add_group(WeightGroup(name, name[0], "matmul", 4, 4, 1))
        graph.add_edge("a/x", "b/x", 1)
        graph.add_edge("b/x", "a/x", 1)
        digests = subgraph_digests(graph)
        assert set(digests) == {"a/x", "b/x"}
        assert graph_digest(graph) == graph_digest(graph)


# ---------------------------------------------------------------------------
# the store
# ---------------------------------------------------------------------------


class TestSubgraphStore:
    def test_put_get_and_counters(self):
        store = SubgraphStore()
        assert store.get("k") is None
        store.put("k", {"v": 1})
        assert store.get("k") == {"v": 1}
        assert (store.stats.hits, store.stats.misses, store.stats.puts) == (1, 1, 1)
        assert "k" in store and "absent" not in store

    def test_lru_eviction_bounds_the_memory_tier(self):
        store = SubgraphStore(max_entries=2)
        for key in ("a", "b", "c"):
            store.put(key, key)
        assert len(store) == 2
        assert store.get("a") is None  # evicted first
        assert store.get("c") == "c"

    def test_bad_max_entries_rejected(self):
        with pytest.raises(InvalidRequestError):
            SubgraphStore(max_entries=0)

    def test_invalid_entry_dropped_and_counted(self):
        store = SubgraphStore()
        store.put("k", "poison")
        assert store.get("k", validate=lambda v: False) is None
        assert store.stats.errors == 1
        assert store.stats.misses == 1
        assert len(store) == 0
        # the entry is gone for good, not just skipped once
        assert store.get("k") is None

    def test_validator_crash_counts_as_invalid(self):
        store = SubgraphStore()
        store.put("k", "poison")

        def explode(value):
            raise RuntimeError("boom")

        assert store.get("k", validate=explode) is None
        assert store.stats.errors == 1

    def test_disk_tier_round_trip(self, tmp_path):
        directory = str(tmp_path / "store")
        writer = SubgraphStore(shared=SharedStageCache(directory, verify=False))
        writer.put("k", {"fragment-data": 7})
        reader = SubgraphStore(shared=SharedStageCache(directory, verify=False))
        assert reader.get("k") == {"fragment-data": 7}
        assert reader.stats.hits == 1

    def test_poisoned_disk_entry_dropped_from_both_tiers(self, tmp_path):
        directory = str(tmp_path / "store")
        shared = SharedStageCache(directory, verify=False)
        shared.put("k", {"fragment": "poison"})
        store = SubgraphStore(shared=SharedStageCache(directory, verify=False))
        assert store.get("k", validate=lambda v: v != "poison") is None
        assert store.stats.errors == 1
        # dropped from disk too: a fresh store over the directory misses
        fresh = SubgraphStore(shared=SharedStageCache(directory, verify=False))
        assert fresh.get("k") is None

    def test_clear_resets_memory_and_stats_only(self, tmp_path):
        directory = str(tmp_path / "store")
        store = SubgraphStore(shared=SharedStageCache(directory, verify=False))
        store.put("k", 1)
        store.clear()
        assert len(store) == 0
        assert store.stats.puts == 0
        # the disk tier survives for peers
        assert store.get("k") == 1


class TestDefaultStore:
    def test_env_variable_attaches_the_disk_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv(DEDUP_STORE_ENV, str(tmp_path / "dedup"))
        clear_default_dedup_store()
        try:
            store = default_dedup_store()
            assert store.shared is not None
            assert default_dedup_store() is store  # process-wide singleton
        finally:
            clear_default_dedup_store()

    def test_unset_env_means_memory_only(self, monkeypatch):
        monkeypatch.delenv(DEDUP_STORE_ENV, raising=False)
        clear_default_dedup_store()
        try:
            assert default_dedup_store().shared is None
        finally:
            clear_default_dedup_store()


# ---------------------------------------------------------------------------
# bit-identity of spliced compiles
# ---------------------------------------------------------------------------


def _summary(result, compiler):
    return strip_seconds(ResultSummary.from_result(result, compiler.config).to_dict())


def _compile(model_graph, store=None, dedup=False, seed=0):
    compiler = FPSACompiler(cache=StageCache(), dedup_store=store)
    result = compiler.compile(model_graph, seed=seed, verify=True, dedup=dedup)
    return result, _summary(result, compiler)


class TestBitIdentity:
    def test_cold_and_warm_splice_match_dedup_off(self):
        graph = build_model("LeNet")
        _, reference = _compile(graph)
        store = SubgraphStore()
        cold_result, cold_summary = _compile(graph, store=store, dedup=True)
        warm_result, warm_summary = _compile(graph, store=store, dedup=True)
        assert cold_summary == reference
        assert warm_summary == reference
        assert warm_result.cache_stats.dedup_hits > 0
        # counters surface on cache_stats, never on the summary itself
        assert "dedup" not in str(sorted(reference))

    def test_cross_model_store_reuse_stays_bit_identical(self):
        store = SubgraphStore()
        vgg11 = build_model("VGG11")
        vgg16 = build_model("VGG16")
        _, reference16 = _compile(vgg16)
        _, reference11 = _compile(vgg11)
        _, warm11 = _compile(vgg11, store=store, dedup=True)
        warm_result, warm16 = _compile(vgg16, store=store, dedup=True)
        assert warm11 == reference11
        assert warm16 == reference16
        stats = warm_result.cache_stats
        assert stats.dedup_hits > 0
        assert stats.dedup_hits / (stats.dedup_hits + stats.dedup_misses) > 0.5

    def test_poisoned_store_degrades_to_miss_not_breakage(self):
        graph = build_model("LeNet")
        _, reference = _compile(graph)
        store = SubgraphStore()
        _compile(graph, store=store, dedup=True)  # cold fill
        # poison every fragment in place: wrong shapes for both splice sides
        with store._lock:
            for key in list(store._entries):
                store._entries[key] = ("poison",)
        result, summary = _compile(graph, store=store, dedup=True)
        assert summary == reference
        assert result.cache_stats.dedup_hits == 0
        assert store.stats.errors > 0

    def test_fold_creates_cache_stats_counters(self):
        graph = build_model("MLP-500-100")
        store = SubgraphStore()
        result, _ = _compile(graph, store=store, dedup=True)
        stats = result.cache_stats
        assert isinstance(stats, CacheStats)
        assert stats.dedup_lookups == stats.dedup_hits + stats.dedup_misses
        assert stats.dedup_lookups > 0

    def test_dedup_off_records_no_dedup_lookups(self):
        result, _ = _compile(build_model("MLP-500-100"))
        stats = result.cache_stats
        assert stats is None or stats.dedup_lookups == 0


class TestMappingReplay:
    def _map(self, coreops, config, store):
        from repro.core.dedup import DedupStats
        from repro.mapper.replay import map_with_dedup

        stats = DedupStats()
        result = map_with_dedup(coreops, config, store, stats)
        return result, stats

    def test_replay_matches_legacy_mapper(self, lenet_coreops, config):
        from repro.core.cache import netlist_fingerprint
        from repro.mapper.mapper import SpatialTemporalMapper

        legacy = SpatialTemporalMapper(config).map(lenet_coreops)
        store = SubgraphStore()
        cold, _ = self._map(lenet_coreops, config, store)
        warm, warm_stats = self._map(lenet_coreops, config, store)
        for result in (cold, warm):
            assert result.allocation == legacy.allocation
            assert result.netlist.n_pe == legacy.netlist.n_pe
            assert result.netlist.n_smb == legacy.netlist.n_smb
            assert result.netlist.n_clb == legacy.netlist.n_clb
            assert netlist_fingerprint(result.netlist) == netlist_fingerprint(
                legacy.netlist
            )
            assert result.control == legacy.control
        assert warm_stats.hits == len(lenet_coreops.groups())

    def test_plausible_but_inconsistent_fragments_are_dropped(
        self, lenet_coreops, config
    ):
        store = SubgraphStore()
        reference, _ = self._map(lenet_coreops, config, store)
        # shape-valid poison: right tuple form, impossible tile count and
        # wrong duplication — passes _valid_fragment, caught by the
        # consistency check, dropped, recomputed as a miss
        with store._lock:
            for key in list(store._entries):
                store._entries[key] = (10**9, 10**9)
        poisoned, stats = self._map(lenet_coreops, config, store)
        assert stats.hits == 0
        assert stats.errors == len(lenet_coreops.groups())
        assert poisoned.allocation == reference.allocation
