"""Durable, content-addressed storage of compile runs.

The :class:`ArtifactStore` persists every served
:class:`~repro.service.schemas.CompileResponse` (and the emitted bitstream,
when the request asked for one) under a run directory named by the content
hash of the response, with an append-only index for listing past runs::

    <root>/
      index.jsonl                  one {run_id, model, status, created_at, ...} per indexed save
      index.json                   an older store's whole-file index (read first, never written)
      runs/<run_id>/response.json  the full wire response
      runs/<run_id>/bitstream.json the chip configuration (when emitted)

Content addressing makes saves idempotent — re-serving an identical request
with an identical outcome lands on the same run directory — and idempotent
means *first write wins*.  A run id leaves out a response's
run-environment-dependent fields (see :meth:`ArtifactStore.run_id_for`), so
an instance that has written and indexed a run writes nothing when an equal
response is saved again: ``response.json`` keeps the volatile fields of the
first save.  Any other save — a new id, another instance or process, a
bitstream arriving later, a removed run directory — rewrites the run files
under the guard, and appends an index line if this instance had not
indexed the id or a bitstream arrived.  Readers fold the lines: an id's
first line gives its ``created_at``, any line may add the bitstream, and a
line that does not decode (torn by a crash, or still being appended) is
skipped.  Run files are replaced atomically (temp file + ``os.replace``).

Who writes a run: under a :class:`~repro.service.jobs.JobManager` (and so a
``ServingRuntime``), the worker that compiled an answer saves it, into its
own instance of the store, which it keeps for its life (a store crosses a
process boundary as its root and arrives as that process's one instance
of it, :meth:`ArtifactStore.__reduce__`); the manager records the returned
id with :meth:`ArtifactStore.note_saved` and saves only the answers it
makes itself.  A ``use_cache=False`` repeat compiles again: on the worker
that saved the run it writes nothing, on another worker it writes its id a
second time: its ``response.json`` then holds that save's volatile
fields, and the index one more line for the id.
"""

from __future__ import annotations

import dataclasses
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
from ..wire import WireRecord
from .schemas import CompileResponse

__all__ = ["ArtifactStore", "RunRecord"]

_INDEX_NAME = "index.jsonl"
_RUNS_DIR = "runs"
_RUN_ID_MEMO = "_run_id"  # set on a (frozen) response by its first address


@dataclass(frozen=True)
class RunRecord(WireRecord):
    """One index entry: the metadata of a persisted run."""

    run_id: str
    model: str
    status: str
    duplication_degree: int
    created_at: float
    has_bitstream: bool


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
        #: run id -> (its ``response.json`` path, ``has_bitstream``) as
        #: *this instance* last indexed it: what lets a repeat save return
        #: after one ``stat``.  Not a copy of the index: other savers'
        #: entries are only read from disk.
        self._indexed: dict[str, tuple[str, bool]] = {}

    def __reduce__(self):
        """A store crosses a process boundary as its root: it arrives as
        the receiving process's one instance for that root, with its own
        lock, indexing what that process saved (:func:`_process_store`)."""
        return _process_store, (str(self.root),)

    # ------------------------------------------------------------------
    # index handling
    # ------------------------------------------------------------------

    @contextmanager
    def _index_guard(self):
        """Serialize saves across threads *and* processes (a ``serve-batch``
        pool in one shell, an ``FPSAClient`` in another): the thread lock
        plus an advisory ``flock`` where the platform provides one."""
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

    def _read_index(self) -> dict[str, RunRecord]:
        """One record per run id, folded from an older store's ``index.json``
        and then the log: the first entry wins, a later one can only add
        the bitstream."""
        legacy = self.root / "index.json"
        entries = list(json.loads(legacy.read_bytes()).values()) if legacy.exists() else []
        if self._index_path.exists():
            for line in self._index_path.read_bytes().splitlines():
                try:
                    entries.append(json.loads(line))
                except ValueError:  # torn by a crash, or still being appended
                    continue
        records: dict[str, RunRecord] = {}
        for record in map(RunRecord.from_dict, entries):
            first = records.setdefault(record.run_id, record)
            if record.has_bitstream and not first.has_bitstream:
                records[record.run_id] = dataclasses.replace(first, has_bitstream=True)
        return records

    def _append_index(self, record: RunRecord) -> None:
        """Append one line (under the guard); a last line a crash left
        without its newline is ended first, never continued."""
        line = json.dumps(record.to_dict(), separators=(",", ":")).encode("utf-8") + b"\n"
        with open(self._index_path, "a+b") as handle:
            end = handle.seek(0, os.SEEK_END)
            if end:
                handle.seek(end - 1)
                if handle.read(1) != b"\n":
                    line = b"\n" + line
            handle.write(line)

    # ------------------------------------------------------------------
    # saving
    # ------------------------------------------------------------------

    @staticmethod
    def run_id_for(response: CompileResponse) -> str:
        """Content-addressed run id: hash of the canonical response JSON
        minus everything run-environment-dependent (wall-clock timings and
        the stage-cache hit/miss state), so re-serving an identical request
        with an identical outcome maps to the same run id.  Computed once
        per response object."""
        return ArtifactStore._address(response)[0]

    @staticmethod
    def _address(response: CompileResponse) -> tuple[str, dict[str, Any] | None]:
        """:meth:`run_id_for`, plus the wire dict if this call built one."""
        run_id = getattr(response, _RUN_ID_MEMO, None)
        if run_id is not None:
            return run_id, None
        data = canonical = response.to_dict()
        timings = data.get("timings")
        if timings:
            volatile = ("total_seconds", "cache_hits", "cache_misses")
            stripped = {k: v for k, v in timings.items() if k not in volatile}
            stripped["passes"] = [
                {k: v for k, v in entry.items() if k not in ("seconds", "cached")}
                for entry in timings["passes"]
            ]
            canonical = {**data, "timings": stripped}
        text = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        run_id = hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]
        object.__setattr__(response, _RUN_ID_MEMO, run_id)
        return run_id, data

    def note_saved(self, response: CompileResponse, run_id: str, has_bitstream: bool) -> None:
        """Take ``run_id`` as ``response``'s address, and as indexed here:
        another instance of this store (a worker's) has just saved it, so
        this instance's next save of the run returns after one ``stat``."""
        object.__setattr__(response, _RUN_ID_MEMO, run_id)
        self._indexed[run_id] = (str(self.runs_root / run_id / "response.json"), has_bitstream)

    def save(self, response: CompileResponse, bitstream_json: str | None = None) -> str:
        """Persist one response (and optional bitstream); returns the run id.
        A run this instance indexed, whose files are there, is not rewritten."""
        run_id, data = self._address(response)
        saved, indexed = self._indexed.get(run_id, (None, None))
        if indexed is not None and os.path.exists(saved) and (
            bitstream_json is None
            or (indexed and os.path.exists(os.path.join(os.path.dirname(saved), "bitstream.json")))
        ):
            return run_id
        run_dir = self.runs_root / run_id
        text = json.dumps(data if data is not None else response.to_dict(), sort_keys=True)
        with self._index_guard():
            run_dir.mkdir(parents=True, exist_ok=True)
            _write_atomic(run_dir / "response.json", text)
            if bitstream_json is not None:
                _write_atomic(run_dir / "bitstream.json", bitstream_json)
            has_bitstream = bitstream_json is not None or bool(indexed)
            if has_bitstream != indexed:  # also when this instance never indexed it
                request = response.request
                self._append_index(RunRecord(
                    run_id, request.model, response.status,
                    request.duplication_degree, time.time(), has_bitstream,
                ))
                self._indexed[run_id] = (str(run_dir / "response.json"), has_bitstream)
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
        records = list(self._read_index().values())
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


#: root -> this process's instance of the store there, built on arrival.
_STORES: dict[str, ArtifactStore] = {}


def _process_store(root: str) -> ArtifactStore:
    """This process's instance of the store at ``root``: built on first
    arrival, then reused, so a worker creates the run directory once and
    a run it saved is a single ``stat`` when it saves the run again."""
    store = _STORES.get(root)
    if store is None:
        store = _STORES.setdefault(root, ArtifactStore(root))
    return store
