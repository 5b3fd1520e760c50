"""Cross-process shared stage-cache tier: a disk tier of P&R results.

A :class:`SharedStageCache` is a disk-backed, content-addressed store of
pickled pass artifacts, keyed by the exact same cache keys the in-memory
:class:`~repro.core.cache.StageCache` uses.  It is the second tier of the
stage cache: worker N's placement and routing, written through to the
shared directory, serves worker M's lookup even though the two never
share an address space.  The service layer does not remember an answer
that emitted a bitstream, so a repeated ``run_pnr`` bitstream request
that lands on another worker, or one in another process, loads its
routing instead of placing and routing again.

The tier holds an entry only when its readers save more than its writer
pays, and only P&R does: a routing takes tens of milliseconds to compute
and a fraction of one to load.  Synthesis, partition and mapping results
compute in about the time a disk round trip takes, and their repeats are
answered before they reach a worker, so they stay in each process's
memory tier.  :class:`~repro.core.pipeline.CompilePass` subclasses opt in
with ``shareable = True``; only ``PnRPass`` does
(:meth:`~repro.core.cache.StageCache.get` / ``put`` never reach this tier
for the others).

Design constraints (all enforced here, not by callers):

* **Atomic writes.**  An artifact is pickled to a temporary file in the
  cache directory and published with ``os.replace``, so concurrent readers
  either see a complete entry or none at all — never a torn pickle.
* **Bounded size, LRU eviction.**  ``max_bytes`` caps the directory; when a
  put pushes past it, the least-recently-used entries (by file mtime, which
  ``get`` refreshes) are removed until the cache fits again.
* **Crash/ corruption tolerance.**  An unreadable entry (evicted mid-read,
  version skew, truncated by a dying process) is treated as a miss and
  deleted; the compile then simply re-runs the pass.
* **Verified loads.**  With ``REPRO_VERIFY`` on, every loaded entry runs
  through the IR verifiers; a failure deletes the entry and raises, so a
  poisoned pickle surfaces at the boundary, not three passes downstream.
  The environment variable is the only switch (there is no ``verify=``).

The tier keeps no counters: ``get`` answers with the artifacts or
``None`` and ``put`` with whether the entry stuck, and the compile that
asked counts the outcome in its own tally
(:class:`~repro.core.cache.CacheStats`).

The tier is opt-in: give one to a :class:`StageCache` as its ``shared=``
argument, point the ``REPRO_SHARED_CACHE`` environment variable at a
directory, or pass ``repro deploy --shared-cache``.  A tier reaches a worker
process only with the ``StageCache`` it is handed, which carries the tier,
size bound included (see :meth:`StageCache.__reduce__`).
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from typing import Any

from ..analysis.verify import verification_enabled, verify_artifacts
from ..errors import InvalidRequestError, VerificationError
from ..faults import (
    KIND_CORRUPT,
    SITE_SHARED_CACHE_GET,
    SITE_SHARED_CACHE_PUT,
    fire,
)

__all__ = [
    "SHARED_CACHE_ENV",
    "SHARED_CACHE_MAX_BYTES_ENV",
    "DEFAULT_MAX_BYTES",
    "SharedStageCache",
    "shared_cache_from_env",
]

#: environment variable naming the shared-cache directory (empty = disabled).
SHARED_CACHE_ENV = "REPRO_SHARED_CACHE"

#: environment variable overriding the size bound in bytes.
SHARED_CACHE_MAX_BYTES_ENV = "REPRO_SHARED_CACHE_MAX_BYTES"

#: default size bound: generous for artifact pickles, small for a disk.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

_SUFFIX = ".pkl"


class SharedStageCache:
    """Disk-backed, content-addressed artifact store shared across processes.

    Values are ``{artifact name: object}`` dicts exactly as the in-memory
    :class:`~repro.core.cache.StageCache` holds them; keys are the passes'
    content-addressed cache keys.  Safe for concurrent use by any number of
    processes on one filesystem.
    """

    def __init__(self, directory: str, max_bytes: int = DEFAULT_MAX_BYTES):
        if max_bytes <= 0:
            raise InvalidRequestError("max_bytes must be positive")
        self.directory = os.path.abspath(directory)
        self.max_bytes = max_bytes
        self._lock = threading.Lock()
        #: running estimate of the on-disk footprint, maintained so puts
        #: need not rescan the whole directory; ``None`` until the first
        #: put seeds it with a real scan.  Peer processes' writes make it
        #: drift low, but every eviction pass rescans and corrects it.
        self._approx_bytes: int | None = None
        os.makedirs(self.directory, exist_ok=True)

    # ------------------------------------------------------------------
    # paths
    # ------------------------------------------------------------------

    def _path(self, key: str) -> str:
        # two-level fan-out keeps directory listings short for big caches
        return os.path.join(self.directory, key[:2], key + _SUFFIX)

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self._path(key))

    def __len__(self) -> int:
        return sum(1 for _ in self._entries())

    def _entries(self):
        """Yield ``(path, mtime, size)`` for every published entry."""
        try:
            shards = os.listdir(self.directory)
        except OSError:
            return
        for shard in shards:
            shard_dir = os.path.join(self.directory, shard)
            try:
                names = os.listdir(shard_dir)
            except OSError:
                continue
            for name in names:
                if not name.endswith(_SUFFIX):
                    continue
                path = os.path.join(shard_dir, name)
                try:
                    stat = os.stat(path)
                except OSError:
                    continue  # evicted by a peer between listdir and stat
                yield path, stat.st_mtime, stat.st_size

    # ------------------------------------------------------------------
    # get / put
    # ------------------------------------------------------------------

    def get(self, key: str) -> dict[str, Any] | None:
        """Load the artifacts stored under ``key``, or ``None`` on a miss
        (an unreadable entry is deleted and misses too)."""
        path = self._path(key)
        try:
            # injected transient read faults degrade exactly like a real
            # unreadable entry: a miss, entry dropped, pass re-runs
            fire(SITE_SHARED_CACHE_GET, key=key)
            with open(path, "rb") as handle:
                artifacts = pickle.load(handle)
        except FileNotFoundError:
            return None
        except Exception:  # noqa: BLE001 - unreadable entry: drop, recompute
            self._remove(path)
            return None
        if verification_enabled():
            try:
                if not isinstance(artifacts, dict):
                    raise VerificationError(
                        f"shared-cache: entry-shape: entry under {key!r} is a "
                        f"{type(artifacts).__name__}, not an artifact dict",
                        stage="shared-cache",
                        invariant="entry-shape",
                        ids=(key,),
                    )
                verify_artifacts(artifacts)
            except VerificationError:
                # a structurally invalid entry is worse than a missing one:
                # drop it so the next compile recomputes, and raise so this
                # load fails at the boundary with the pinpointed violation
                self._remove(path)
                raise
        # refresh the mtime so eviction sees this entry as recently used
        try:
            os.utime(path)
        except OSError:
            pass
        return artifacts

    def put(self, key: str, artifacts: dict[str, Any]) -> bool:
        """Publish ``artifacts`` under ``key``; returns whether it stuck.

        Unpicklable artifacts and failed writes return ``False`` rather
        than raise: the shared tier is an accelerator, never a correctness
        dependency.
        """
        try:
            payload = pickle.dumps(artifacts, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - see docstring
            return False
        path = self._path(key)
        shard_dir = os.path.dirname(path)
        try:
            # injected write faults: io_error degrades to a failed
            # put below; a corrupt spec swaps the payload for garbage bytes
            # so the read side's damage tolerance gets exercised
            spec = fire(SITE_SHARED_CACHE_PUT, key=key)
            if spec is not None and spec.kind == KIND_CORRUPT:
                payload = b"\x00repro-injected-corrupt-entry"
            os.makedirs(shard_dir, exist_ok=True)
            fd, tmp_path = tempfile.mkstemp(
                dir=shard_dir, prefix=".tmp-", suffix=_SUFFIX
            )
            try:
                with os.fdopen(fd, "wb") as handle:
                    handle.write(payload)
                os.replace(tmp_path, path)  # atomic publish
            except BaseException:
                self._remove(tmp_path)
                raise
        except OSError:
            return False
        with self._lock:
            if self._approx_bytes is None:
                scan_needed = True
            else:
                self._approx_bytes += len(payload)
                scan_needed = self._approx_bytes > self.max_bytes
        if scan_needed:
            # full scans are O(total entries); they run only to seed the
            # estimate and when the estimate says the bound is crossed
            self._evict_to_fit()
        return True

    # ------------------------------------------------------------------
    # eviction / maintenance
    # ------------------------------------------------------------------

    def _remove(self, path: str) -> None:
        try:
            os.remove(path)
        except OSError:
            pass

    def _evict_to_fit(self) -> None:
        """Remove least-recently-used entries until the cache fits.

        Rescans the directory (the authoritative size), evicts oldest
        first, and re-seeds the running estimate with the true total."""
        entries = sorted(self._entries(), key=lambda e: e[1])  # oldest first
        total = sum(size for _, _, size in entries)
        for path, _, size in entries:
            if total <= self.max_bytes:
                break
            self._remove(path)
            total -= size
        with self._lock:
            self._approx_bytes = total

    def total_bytes(self) -> int:
        """Current on-disk footprint of the published entries."""
        return sum(size for _, _, size in self._entries())

    def clear(self) -> None:
        """Drop every entry (peers see misses afterwards)."""
        for path, _, _ in list(self._entries()):
            self._remove(path)
        with self._lock:
            self._approx_bytes = None

    def __repr__(self) -> str:
        return (
            f"<SharedStageCache {self.directory!r} "
            f"max_bytes={self.max_bytes}>"
        )


def shared_cache_from_env() -> SharedStageCache | None:
    """The shared cache named by ``REPRO_SHARED_CACHE``, or ``None``.

    A ``REPRO_SHARED_CACHE_MAX_BYTES`` that is not a positive integer
    raises an :class:`InvalidRequestError` naming the variable and value.
    """
    directory = os.environ.get(SHARED_CACHE_ENV, "").strip()
    if not directory:
        return None
    raw = os.environ.get(SHARED_CACHE_MAX_BYTES_ENV, "").strip()
    if not raw:
        return SharedStageCache(directory)
    if not raw.isdecimal() or int(raw) == 0:
        raise InvalidRequestError(
            f"{SHARED_CACHE_MAX_BYTES_ENV}={raw!r} is not a positive integer",
            details={SHARED_CACHE_MAX_BYTES_ENV: raw},
        )
    return SharedStageCache(directory, max_bytes=int(raw))
