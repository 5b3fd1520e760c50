"""The high-throughput serving runtime.

:class:`ServingRuntime` is the long-lived front door for serving compile
traffic.  It composes the three between-request optimizations this layer
owns — none of which speed up a single compile, all of which speed up a
*stream* of them:

* a **persistent warm worker pool** (:class:`~repro.core.api.WorkerPool`):
  worker processes are spawned once, inherit the model zoo and the pass
  pipeline from the parent (P&R loads on a worker's first job that
  places), and stay alive across every batch the runtime serves (a worker
  that dies fails only the job it ran and is replaced, :meth:`health` says
  how often);
* a **per-runtime stage cache**: every job gets one private
  :class:`~repro.core.cache.StageCache`, which each worker holds as its
  own in-memory copy;
* **request coalescing** (:class:`~repro.service.jobs.JobManager`):
  identical requests share one compile; the response fans out to every
  waiter, and answers a later repeat without reaching a worker.

The one memory shared across processes is the artifact store: with a
``store``, the worker that compiled an answer saves it (and its
bitstream), and a repeat of a bitstream request is answered from that run
without a second compile (ARCHITECTURE.md "Cross-process memory is the
store").

Typical use::

    with ServingRuntime(max_workers=4) as runtime:
        responses = runtime.serve_batch(requests)      # batch 1: cold
        responses = runtime.serve_batch(requests)      # batch 2: warm
        print(runtime.stats())

The runtime owns its pool and shuts it down on ``close()`` / context
exit.  The ``serve_mixed`` workload of ``benchmarks/stack/`` measures
exactly this runtime.
"""

from __future__ import annotations

from dataclasses import asdict
from typing import TYPE_CHECKING, Any, Iterable

from ..arch.params import FPSAConfig
from ..core.cache import StageCache
from .jobs import JobManager
from .schemas import CompileRequest, CompileResponse

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import ArtifactStore

__all__ = ["ServingRuntime"]


class ServingRuntime:
    """Warm-pool, coalescing front door for compile traffic.

    Parameters
    ----------
    max_workers:
        Worker processes of the persistent pool; ``None`` picks
        ``min(cpu_count, 8)``.
    config:
        Hardware configuration served to every request.
    shared_cache_dir:
        Ignored: kept for callers that still pass it.  The artifact store
        is the one cross-process memory.
    coalesce:
        Deduplicate identical requests, in flight or concluded (default on).
    store:
        Optional :class:`~repro.service.store.ArtifactStore` every
        response is persisted to; a compiled answer by the worker that
        compiled it (:class:`~repro.service.jobs.JobManager`).
    dedup_store_dir:
        Ignored: kept for callers that still pass it, until the next wire schema.
    max_queue_depth:
        Admission-control cap on uncoalesced in-flight jobs; submissions
        past it raise a retriable
        :class:`~repro.errors.OverloadedError`.  ``None`` disables.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        config: FPSAConfig | None = None,
        shared_cache_dir: str | None | bool = None,
        coalesce: bool = True,
        store: "ArtifactStore | None" = None,
        dedup_store_dir: str | None = None,
        max_queue_depth: int | None = None,
    ):
        self.config = config
        self.manager = JobManager(
            max_workers=max_workers,
            config=config,
            cache=StageCache(),
            store=store,
            coalesce=coalesce,
            max_queue_depth=max_queue_depth,
        )
        #: the warm worker pool the manager owns.
        self.pool = self.manager.pool
        self._closed = False

    # ------------------------------------------------------------------
    # serving
    # ------------------------------------------------------------------

    def submit(self, request: CompileRequest | str | dict) -> str:
        """Queue one request on the warm pool; returns the job id."""
        return self.manager.submit(request)

    def result(self, job_id: str, timeout: float | None = None) -> CompileResponse:
        """Block until a submitted job finishes; returns its response."""
        return self.manager.result(job_id, timeout=timeout)

    def serve(
        self, request: CompileRequest | str | dict, timeout: float | None = None
    ) -> CompileResponse:
        """Serve one request synchronously (never raises for compile
        failures — the error rides the response payload)."""
        return self.manager.serve(request, timeout=timeout)

    def serve_batch(
        self,
        requests: Iterable[CompileRequest | str | dict],
        timeout: float | None = None,
    ) -> list[CompileResponse]:
        """Serve a batch of requests concurrently; responses in order.

        Identical requests within (or across) batches coalesce onto one
        compile, and every batch lands on the same warm workers.
        """
        return self.manager.serve_batch(requests, timeout=timeout)

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, Any]:
        """Serving counters: jobs, coalescing, fault handling and pool state."""
        return {
            **asdict(self.manager.stats),
            "pool_health": self.health(),
            "worker_pids": self.pool.worker_pids(),
        }

    def health(self) -> dict[str, Any]:
        """How often the pool's workers died and were replaced (deaths,
        respawns, recovery time)."""
        return self.pool.health.to_dict()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------

    def close(self, wait: bool = True) -> None:
        """Shut the pool down."""
        if self._closed:
            return
        self._closed = True
        self.manager.shutdown(wait=wait)

    def __enter__(self) -> "ServingRuntime":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
