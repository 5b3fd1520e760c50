"""Verification at the rehydration boundaries (shared cache, artifact store)
and end-to-end through a verified compile.

Pickled/JSON state is restored without ever running ``__post_init__``
validation, so these boundaries are where a corrupt artifact must surface —
as a pinpointed :class:`VerificationError`, not as a crash three passes
downstream.
"""

import os
import pickle

import pytest

from repro.core.compiler import FPSACompiler
from repro.core.shared_cache import SharedStageCache
from repro.errors import VerificationError
from repro.service import ArtifactStore, CompileRequest, serve_request

KEY = "a" * 64


@pytest.fixture
def cache(tmp_path, monkeypatch):
    # REPRO_VERIFY is the tier's only verification switch
    monkeypatch.setenv("REPRO_VERIFY", "1")
    return SharedStageCache(str(tmp_path))


def corrupt_entry(cache, key):
    """Rewrite the stored pickle as a *valid* pickle of an *invalid* artifact.

    Byte-level corruption only exercises the unpickle-failure path (counted
    as a miss); the verifiers exist for the nastier case of a well-formed
    pickle whose contents violate the IR invariants.
    """
    path = cache._path(key)
    with open(path, "rb") as handle:
        artifacts = pickle.load(handle)
    group = next(iter(artifacts["coreops"].groups()))
    object.__setattr__(group, "density", 0.0)  # invariant: density in (0, 1]
    with open(path, "wb") as handle:
        pickle.dump(artifacts, handle, protocol=pickle.HIGHEST_PROTOCOL)
    return path


class TestSharedCacheVerification:
    def test_valid_entries_pass_verification(self, cache, mlp_coreops):
        cache.put(KEY, {"coreops": mlp_coreops})
        loaded = cache.get(KEY)
        assert set(loaded) == {"coreops"}
        assert KEY in cache

    def test_corrupt_entry_raises_pinpointed_error(self, cache, mlp_coreops, tmp_path):
        cache.put(KEY, {"coreops": mlp_coreops})
        path = corrupt_entry(cache, KEY)
        with pytest.raises(VerificationError) as excinfo:
            cache.get(KEY)
        error = excinfo.value
        assert error.stage == "synthesis"
        assert error.invariant == "weight-group-consistency"
        assert error.ids  # names the offending group(s)
        # the poisoned entry is dropped so the next compile recomputes
        assert not os.path.exists(path)
        assert KEY not in cache
        assert cache.get(KEY) is None

    def test_non_dict_entry_fails_shape_check(self, cache):
        path = cache._path(KEY)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "wb") as handle:
            pickle.dump([1, 2, 3], handle)
        with pytest.raises(VerificationError) as excinfo:
            cache.get(KEY)
        assert excinfo.value.stage == "shared-cache"
        assert excinfo.value.invariant == "entry-shape"
        assert KEY in excinfo.value.ids

    def test_verification_off_loads_the_corrupt_entry(
        self, tmp_path, mlp_coreops, monkeypatch
    ):
        # without the opt-in, the shared tier stays a pure accelerator:
        # a well-formed pickle loads as a hit, invariants unchecked
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        cache = SharedStageCache(str(tmp_path))
        cache.put(KEY, {"coreops": mlp_coreops})
        path = corrupt_entry(cache, KEY)
        assert cache.get(KEY) is not None
        assert os.path.exists(path)

    def test_env_variable_enables_verification(self, tmp_path, mlp_coreops, monkeypatch):
        monkeypatch.delenv("REPRO_VERIFY", raising=False)
        cache = SharedStageCache(str(tmp_path))
        cache.put(KEY, {"coreops": mlp_coreops})
        corrupt_entry(cache, KEY)
        assert cache.get(KEY) is not None
        monkeypatch.setenv("REPRO_VERIFY", "1")
        with pytest.raises(VerificationError):
            cache.get(KEY)


class TestStoreVerification:
    @pytest.fixture
    def response(self):
        return serve_request(CompileRequest(model="MLP-500-100")).response

    def test_untampered_run_verifies(self, tmp_path, response):
        store = ArtifactStore(tmp_path)
        run_id = store.save(response)
        assert store.load(run_id, verify=True) == response

    def test_tampered_response_fails_content_address(self, tmp_path, response):
        store = ArtifactStore(tmp_path)
        run_id = store.save(response)
        path = store.runs_root / run_id / "response.json"
        doctored = path.read_text(encoding="utf-8").replace(
            '"duplication_degree": 1', '"duplication_degree": 3'
        )
        assert doctored != path.read_text(encoding="utf-8")
        path.write_text(doctored, encoding="utf-8")
        with pytest.raises(VerificationError) as excinfo:
            store.load(run_id, verify=True)
        error = excinfo.value
        assert error.stage == "store"
        assert error.invariant == "content-address"
        assert run_id in error.ids
        # without verification the doctored bytes load silently (by design:
        # the check is the opt-in tamper seal, not a load-time requirement)
        assert store.load(run_id).request.duplication_degree == 3


class TestVerifiedCompile:
    def test_verify_rows_appear_and_do_not_skew_counters(self, mlp_graph):
        compiler = FPSACompiler(cache=False)
        plain = compiler.compile(mlp_graph)
        verified = compiler.compile(mlp_graph, verify=True)
        names = [t.name for t in verified.timings]
        assert "verify:graph" in names
        assert "verify:coreops" in names
        assert "verify:mapping" in names
        verify_rows = [t for t in verified.timings if t.name.startswith("verify:")]
        assert all(not t.cached and t.provides == () for t in verify_rows)
        # verifiers are not passes: hit/miss accounting must match a plain run
        assert verified.cache_hits == plain.cache_hits
        assert verified.cache_misses == plain.cache_misses

    def test_verify_is_not_part_of_the_request_identity(self):
        plain = CompileRequest(model="MLP-500-100")
        verified = CompileRequest(model="MLP-500-100", verify=True)
        assert plain.fingerprint() == verified.fingerprint()
