"""A disk-backed, content-addressed store of pickled pass artifacts.

No compile reads or writes it: the one memory shared across processes is
the artifact store (:class:`~repro.service.store.ArtifactStore`), from
which a repeated bitstream request is answered.  :class:`SharedStageCache`
stays only because the ``serve_mixed`` benchmark's core probe still times
its ``get``/``put``; it goes with that probe.  No ``src/`` module imports
it.

* **Atomic writes.**  An entry is pickled to a temporary file in the
  directory and published with ``os.replace``, so a reader sees a complete
  entry or none.
* **Bounded size, LRU eviction.**  ``max_bytes`` caps the directory; a put
  that pushes past it removes the least-recently-used entries (by mtime,
  which ``get`` refreshes).
* **Damage tolerance.**  An unreadable entry is a miss and is deleted.
* **Verified loads.**  With ``REPRO_VERIFY`` on, a loaded entry runs
  through the IR verifiers; a failure deletes it and raises.
"""

from __future__ import annotations

import os
import pickle
import tempfile
import threading
from typing import Any

from ..analysis.verify import verification_enabled, verify_artifacts
from ..errors import InvalidRequestError, VerificationError

__all__ = ["DEFAULT_MAX_BYTES", "SharedStageCache"]

#: default size bound: generous for artifact pickles, small for a disk.
DEFAULT_MAX_BYTES = 512 * 1024 * 1024

_SUFFIX = ".pkl"


class SharedStageCache:
    """Disk-backed, content-addressed ``{artifact name: object}`` entries,
    safe for concurrent use by any number of processes on one filesystem."""

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
        than raise.
        """
        try:
            payload = pickle.dumps(artifacts, protocol=pickle.HIGHEST_PROTOCOL)
        except Exception:  # noqa: BLE001 - see docstring
            return False
        path = self._path(key)
        shard_dir = os.path.dirname(path)
        try:
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

