"""Convenience functions for the most common library entry points.

:func:`deploy` / :func:`deploy_model` compile one graph or one zoo model in
this process.  Batches of requests go through
:meth:`repro.service.client.FPSAClient.compile_batch` /
:class:`~repro.service.jobs.JobManager`, which fan out over a
:class:`WorkerPool`: one *persistent, warm* process pool whose workers are
spawned once, pre-import the model zoo and the pass pipeline, and give
their default caches the pool's cross-process
:class:`~repro.core.shared_cache.SharedStageCache` tier.  :func:`run_pool`
is the shard backend's throwaway process pool (the shards of *one*
compile, see :mod:`repro.partition.backend`).  A stage cache sent to
either pool arrives by its own rule (:meth:`StageCache.__reduce__`).
"""

from __future__ import annotations

import os
import threading
from concurrent.futures import Executor, ProcessPoolExecutor
from ..arch.params import FPSAConfig
from ..errors import InvalidRequestError
from ..graph.graph import ComputationalGraph
from ..models.zoo import build_model
from .cache import StageCache, default_cache
from .compiler import FPSACompiler
from .result import DeploymentResult
from .shared_cache import SharedStageCache, shared_cache_from_env

__all__ = [
    "deploy",
    "deploy_model",
    "run_pool",
    "WorkerPool",
]

#: upper bound on worker processes when ``jobs`` is not given.
_MAX_AUTO_JOBS = 8

def _warm_worker(shared_cache_dir: str | None = None) -> None:
    """Worker-process initializer: pay the cold-start cost exactly once.

    Pre-imports the model zoo and every built-in pass module (which pulls
    in numpy and the whole layer stack), so the first real payload a warm
    worker receives compiles immediately instead of importing for hundreds
    of milliseconds.  The process-wide default cache gets the shared tier
    in ``shared_cache_dir``, or none (even one a forked worker inherited).
    """
    from ..models import zoo as _zoo  # noqa: F401 - import is the warmup
    from .pipeline import available_passes

    available_passes()  # imports every layer's pass module
    default_cache().shared = (
        SharedStageCache(shared_cache_dir) if shared_cache_dir else None
    )


class WorkerPool:
    """A persistent, warm pool of compile worker processes.

    Unlike the throwaway ``ProcessPoolExecutor`` :func:`run_pool` spins
    up per call, a ``WorkerPool`` is created once and reused: pass it to
    :class:`~repro.service.jobs.JobManager` (``pool=``) or ``submit`` to
    it directly.  Workers pre-import the zoo and the pass pipeline at
    spawn time and keep their per-process stage caches warm across
    requests.

    Parameters
    ----------
    max_workers:
        Worker processes; ``None`` picks ``min(cpu_count, 8)``.
    shared_cache_dir:
        Directory of the cross-process shared stage cache under every
        worker's default cache.  ``None`` reads the
        ``REPRO_SHARED_CACHE`` environment variable; pass ``False`` to
        disable even when the environment names one.
    """

    def __init__(
        self,
        max_workers: int | None = None,
        shared_cache_dir: str | None | bool = None,
    ):
        if max_workers is not None and max_workers < 1:
            raise InvalidRequestError(
                f"max_workers must be >= 1, got {max_workers}",
                details={"max_workers": max_workers},
            )
        if max_workers is None:
            max_workers = min(os.cpu_count() or 1, _MAX_AUTO_JOBS)
        if shared_cache_dir is None:
            env = shared_cache_from_env()
            shared_cache_dir = env.directory if env is not None else None
        self.max_workers = max_workers
        self.shared_cache_dir = shared_cache_dir or None
        self._lock = threading.Lock()
        self._executor = self._build_executor()

    def _build_executor(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.max_workers,
            initializer=_warm_worker,
            initargs=(self.shared_cache_dir,),
        )

    @property
    def executor(self) -> Executor:
        """The underlying executor (for :class:`JobManager` and friends)."""
        with self._lock:
            return self._executor

    def rebuild(self) -> None:
        """Replace a (typically broken) executor with a fresh warm pool.

        The new pool runs the same :func:`_warm_worker` initializer with the
        same arguments, so respawned workers re-import the pipeline and
        re-attach the shared cache tier exactly like the originals.  The old
        executor is shut down without waiting — its workers are dead or
        dying, and its futures have already been failed by the breakage.
        """
        with self._lock:
            old = self._executor
            self._executor = self._build_executor()
        old.shutdown(wait=False)

    def submit(self, worker, *args, **kwargs):
        return self.executor.submit(worker, *args, **kwargs)

    def worker_pids(self) -> list[int]:
        """PIDs of the currently live worker processes (spawned-so-far)."""
        processes = getattr(self.executor, "_processes", None) or {}
        return sorted(processes)

    def shutdown(self, wait: bool = True) -> None:
        self.executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


def run_pool(worker, payloads, jobs: int | None = None) -> list:
    """Map a picklable ``worker`` over ``payloads``, preserving order.

    The process pool of the per-shard backend
    (:mod:`repro.partition.backend`).  ``jobs=None`` picks
    ``min(len(payloads), cpu_count, 8)``; ``1`` (or a single payload) runs
    sequentially in this process, anything else on a throwaway
    ``ProcessPoolExecutor``.
    """
    payloads = list(payloads)
    if jobs is not None and jobs < 1:
        raise InvalidRequestError(
            f"jobs must be >= 1, got {jobs}", details={"jobs": jobs}
        )
    if not payloads:
        return []
    if jobs is None:
        jobs = min(len(payloads), os.cpu_count() or 1, _MAX_AUTO_JOBS)
    if jobs == 1 or len(payloads) == 1:
        return [worker(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=jobs) as executor:
        return list(executor.map(worker, payloads))


def deploy(
    graph: ComputationalGraph,
    duplication_degree: int = 1,
    config: FPSAConfig | None = None,
    cache: StageCache | bool | None = None,
    **kwargs,
) -> DeploymentResult:
    """Deploy a computational graph onto FPSA with default settings.

    Keyword arguments are forwarded to :meth:`FPSACompiler.compile`.
    """
    compiler = FPSACompiler(config, cache=cache)
    return compiler.compile(graph, duplication_degree=duplication_degree, **kwargs)


def deploy_model(
    name: str,
    duplication_degree: int = 1,
    config: FPSAConfig | None = None,
    **kwargs,
) -> DeploymentResult:
    """Deploy one of the benchmark models (see ``repro.models.model_names``)."""
    return deploy(build_model(name), duplication_degree, config, **kwargs)
