"""Durable, content-addressed storage of compile runs.

The :class:`ArtifactStore` persists every served
:class:`~repro.service.schemas.CompileResponse` (and the emitted bitstream,
when the request asked for one) under a run directory named by the content
hash of the response, with a JSON index for listing and reloading past
runs::

    <root>/
      index.json                   run_id -> {model, status, created_at, ...}
      runs/<run_id>/response.json  the full wire response
      runs/<run_id>/request.json   the request alone (convenience copy)
      runs/<run_id>/bitstream.json the chip configuration (when emitted)

Content addressing makes saves idempotent: re-serving an identical request
with an identical outcome lands on the same run directory instead of
accumulating duplicates, which is what makes sweep results comparable
across sessions.

Idempotent means *first write wins*.  A run id covers everything of a
response except its run-environment-dependent fields (pass seconds,
``cached`` flags, hit/miss counters — see :meth:`ArtifactStore.run_id_for`),
so once an :class:`ArtifactStore` instance has written and indexed a run,
saving an equal response into it again writes nothing: the stored
``response.json`` keeps the volatile fields of that instance's *first* save
(as ``created_at`` always did), not of the last.  Every other save — a new
id, another instance or process, a bitstream arriving for a run stored
without one, a run directory that was removed — goes through the guarded
read-modify-write of the index.  Run files and the index are replaced
atomically (temp file + ``os.replace``), so a concurrent ``load`` never
sees a half-written file.
"""

from __future__ import annotations

import hashlib
import json
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator

try:  # POSIX only; on other platforms saves fall back to the thread lock
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX
    fcntl = None

from ..analysis.verify import verification_enabled
from ..errors import InvalidRequestError, VerificationError
from .schemas import CompileResponse

__all__ = ["ArtifactStore", "RunRecord"]

_INDEX_NAME = "index.json"
_RUNS_DIR = "runs"


@dataclass(frozen=True)
class RunRecord:
    """One index entry: the metadata of a persisted run."""

    run_id: str
    model: str
    status: str
    duplication_degree: int
    created_at: float
    has_bitstream: bool

    def to_dict(self) -> dict[str, Any]:
        return {
            "run_id": self.run_id,
            "model": self.model,
            "status": self.status,
            "duplication_degree": self.duplication_degree,
            "created_at": self.created_at,
            "has_bitstream": self.has_bitstream,
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "RunRecord":
        return cls(
            run_id=str(data["run_id"]),
            model=str(data["model"]),
            status=str(data["status"]),
            duplication_degree=int(data.get("duplication_degree") or 1),
            created_at=float(data.get("created_at") or 0.0),
            has_bitstream=bool(data.get("has_bitstream")),
        )


def _write_atomic(path: Path, text: str) -> None:
    """Write-then-rename: a reader sees the old file or the new one, never
    a truncated one, and a crashed save leaves the old one in place."""
    tmp = path.with_name(path.name + ".tmp")
    with open(tmp, "w", encoding="utf-8") as handle:
        handle.write(text)
    os.replace(tmp, path)


class ArtifactStore:
    """Persist and reload compile responses under a root directory."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.runs_root = self.root / _RUNS_DIR
        self.runs_root.mkdir(parents=True, exist_ok=True)
        self._index_path = self.root / _INDEX_NAME
        self._lock = threading.Lock()
        #: run id -> ``has_bitstream`` as *this instance* last wrote it to
        #: the index; what lets a repeat save return without touching a
        #: file.  Not a copy of the index: entries of other savers are only
        #: ever read from disk, under the guard.
        self._indexed: dict[str, bool] = {}

    # ------------------------------------------------------------------
    # index handling
    # ------------------------------------------------------------------

    @contextmanager
    def _index_guard(self):
        """Serialize index read-modify-write across threads *and* processes.

        Two concurrent savers (e.g. a ``serve-batch`` pool in one shell and
        an ``FPSAClient`` in another) must not lose each other's entries, so
        the thread lock is paired with an advisory ``flock`` on a lock file
        next to the index where the platform provides one.
        """
        with self._lock:
            if fcntl is None:  # pragma: no cover - non-POSIX
                yield
                return
            with open(self.root / ".index.lock", "w") as lockfile:
                fcntl.flock(lockfile, fcntl.LOCK_EX)
                try:
                    yield
                finally:
                    fcntl.flock(lockfile, fcntl.LOCK_UN)

    def _read_index(self) -> dict[str, dict[str, Any]]:
        if not self._index_path.exists():
            return {}
        with open(self._index_path, "r", encoding="utf-8") as handle:
            return json.load(handle)

    def _write_index(self, index: dict[str, dict[str, Any]]) -> None:
        _write_atomic(self._index_path, json.dumps(index, indent=2, sort_keys=True))

    # ------------------------------------------------------------------
    # saving
    # ------------------------------------------------------------------

    @staticmethod
    def run_id_for(response: CompileResponse) -> str:
        """Content-addressed run id: hash of the canonical response JSON
        minus everything run-environment-dependent (wall-clock timings and
        the stage-cache hit/miss state), so re-serving an identical request
        with an identical outcome maps to the same run id."""
        data = response.to_dict()
        timings = data.get("timings")
        if timings:
            timings["passes"] = [
                {k: v for k, v in entry.items() if k not in ("seconds", "cached")}
                for entry in timings["passes"]
            ]
            for volatile in ("total_seconds", "cache_hits", "cache_misses"):
                timings.pop(volatile, None)
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]

    def save(self, response: CompileResponse, bitstream_json: str | None = None) -> str:
        """Persist one response (and optional bitstream); returns the run id.

        A run this instance has already written and indexed, whose files
        are still there, is not written again (see the module docstring).
        """
        run_id = self.run_id_for(response)
        run_dir = self.runs_root / run_id
        stored_bitstream = self._indexed.get(run_id)
        if (
            stored_bitstream is not None
            and (run_dir / "response.json").exists()
            and (
                bitstream_json is None
                or (stored_bitstream and (run_dir / "bitstream.json").exists())
            )
        ):
            return run_id
        with self._index_guard():
            run_dir.mkdir(parents=True, exist_ok=True)
            _write_atomic(run_dir / "response.json", response.to_json(indent=2))
            _write_atomic(run_dir / "request.json", response.request.to_json(indent=2))
            if bitstream_json is not None:
                _write_atomic(run_dir / "bitstream.json", bitstream_json)
            index = self._read_index()
            existing = index.get(run_id)
            record = RunRecord(
                run_id=run_id,
                model=response.request.model,
                status=response.status,
                duplication_degree=response.request.duplication_degree,
                created_at=(
                    existing["created_at"] if existing else time.time()
                ),
                has_bitstream=bitstream_json is not None
                or bool(existing and existing.get("has_bitstream")),
            )
            index[run_id] = record.to_dict()
            self._write_index(index)
            self._indexed[run_id] = record.has_bitstream
        return run_id

    # ------------------------------------------------------------------
    # loading
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self._read_index())

    def __contains__(self, run_id: str) -> bool:
        return run_id in self._read_index()

    def __iter__(self) -> Iterator[RunRecord]:
        return iter(self.list_runs())

    def list_runs(
        self, model: str | None = None, status: str | None = None
    ) -> list[RunRecord]:
        """Index entries (newest first), optionally filtered."""
        records = [RunRecord.from_dict(entry) for entry in self._read_index().values()]
        if model is not None:
            records = [r for r in records if r.model == model]
        if status is not None:
            records = [r for r in records if r.status == status]
        return sorted(records, key=lambda r: r.created_at, reverse=True)

    def _run_dir(self, run_id: str) -> Path:
        run_dir = self.runs_root / run_id
        if not (run_dir / "response.json").exists():
            raise InvalidRequestError(
                f"unknown run id {run_id!r} in store {str(self.root)!r}",
                details={"run_id": run_id, "store": str(self.root)},
            )
        return run_dir

    def load(self, run_id: str, verify: bool | None = None) -> CompileResponse:
        """Reload the full response of a past run.

        With verification on (``verify=True`` or ``REPRO_VERIFY=1``), the
        loaded response's content address is recomputed and compared to
        ``run_id``: a tampered or bit-rotted ``response.json`` raises a
        :class:`~repro.errors.VerificationError` at the load boundary
        instead of feeding silently-corrupt numbers downstream.
        """
        payload = (self._run_dir(run_id) / "response.json").read_text(encoding="utf-8")
        response = CompileResponse.from_json(payload)
        if verification_enabled(verify):
            expected = self.run_id_for(response)
            if expected != run_id:
                raise VerificationError(
                    f"store: content-address: run {run_id!r} re-hashes to "
                    f"{expected!r}; the stored response was modified after "
                    f"it was saved",
                    stage="store",
                    invariant="content-address",
                    ids=(run_id, expected),
                    details={"store": str(self.root)},
                )
        return response

    def load_bitstream(self, run_id: str) -> str | None:
        """The stored bitstream JSON of a run, or ``None`` if none was emitted."""
        path = self._run_dir(run_id) / "bitstream.json"
        return path.read_text(encoding="utf-8") if path.exists() else None

    def latest(self, model: str | None = None) -> RunRecord | None:
        """The most recent run (of ``model``, when given), if any."""
        runs = self.list_runs(model=model)
        return runs[0] if runs else None
