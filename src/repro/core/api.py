"""Convenience functions for the most common library entry points.

:func:`deploy` / :func:`deploy_model` compile one graph or one zoo model in
this process.  Batches of requests go through
:meth:`repro.service.client.FPSAClient.compile_batch` /
:class:`~repro.service.jobs.JobManager`, which fan out over a
:class:`WorkerPool`: one *persistent, warm* process pool whose workers are
spawned once and inherit the model zoo and the pass pipeline.  The
shards of one compile (:mod:`repro.partition.backend`) fan out over a
``WorkerPool`` too.  A worker compiles against the stage cache it is
handed, and a disk tier reaches it only with that cache
(:meth:`StageCache.__reduce__`); the pool configures no cache.  A pool
whose worker died heals itself (:meth:`WorkerPool.heal`) and counts it in
:class:`PoolHealth`.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import Executor
from dataclasses import dataclass

from ..arch.params import FPSAConfig
from ..errors import InvalidRequestError
from ..graph.graph import ComputationalGraph
from ..models.zoo import build_model
from ..wire import WireRecord
from .cache import StageCache
from .compiler import FPSACompiler
from .result import DeploymentResult

__all__ = [
    "deploy",
    "deploy_model",
    "PoolHealth",
    "WorkerPool",
]

#: upper bound on worker processes when ``jobs`` is not given.
_MAX_AUTO_JOBS = 8


@dataclass
class PoolHealth(WireRecord):
    """How often a :class:`WorkerPool` broke and how it recovered."""

    #: distinct pool breakages (reports of one breakage coalesce).
    broken_pool_events: int = 0
    #: executor rebuilds performed (== generations advanced).
    respawns: int = 0
    #: wall-clock seconds the most recent rebuild took.
    last_recovery_seconds: float = 0.0
    #: wall-clock seconds across all rebuilds.
    total_recovery_seconds: float = 0.0


def _warm_worker() -> None:
    """Pay a worker's cold-start imports exactly once.

    Imports the model zoo, every built-in pass module and the P&R engine
    (numpy), so the first real payload a warm worker receives compiles
    immediately instead of importing for hundreds of milliseconds.  A pool
    runs it in the parent before it forks, so forked and respawned workers
    inherit the modules; as the worker initializer it covers a start
    method that does not fork.
    """
    from ..models import zoo as _zoo  # noqa: F401 - import is the warmup
    from ..pnr import pnr as _pnr  # noqa: F401 - pass modules import it on first run
    from .pipeline import available_passes

    available_passes()  # imports every layer's pass module


class WorkerPool:
    """A persistent, warm pool of compile worker processes.

    A ``WorkerPool`` is created once and reused: pass it to
    :class:`~repro.service.jobs.JobManager` (``pool=``) or ``submit`` to
    it directly.  Workers inherit the zoo, the pass pipeline and the P&R
    engine, imported in the parent before it forks.  A job compiles
    against the stage cache it is handed (its copy in the worker keeps its
    memory across jobs); the pool itself configures no cache.

    A ``ProcessPoolExecutor`` is poisoned the moment any worker dies: every
    in-flight and future job fails with ``BrokenProcessPool``.  Whoever sees
    that calls :meth:`heal` with the :attr:`generation` its job ran
    against; the pool swaps in a fresh executor once per generation and
    records it in :attr:`health`.  A pool that was shut down stays shut:
    a late report heals nothing, and a later :meth:`submit` raises.

    Parameters
    ----------
    max_workers:
        Worker processes; ``None`` picks ``min(cpu_count, 8)``.
    shared_cache_dir:
        Ignored: kept for callers that still pass it.  A disk tier reaches
        a worker only with the cache it is handed.
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
        self.max_workers = max_workers
        #: advances by one each time :meth:`heal` replaces the executor.
        self.generation = 0
        self.health = PoolHealth()
        self._lock = threading.Lock()
        self._closed = False
        self._executor = self._build_executor()

    def _build_executor(self) -> Executor:
        from concurrent.futures import ProcessPoolExecutor  # loads multiprocessing

        _warm_worker()
        return ProcessPoolExecutor(
            max_workers=self.max_workers, initializer=_warm_worker
        )

    @property
    def executor(self) -> Executor:
        """The underlying executor (for :class:`JobManager` and friends)."""
        with self._lock:
            return self._executor

    def heal(self, observed_generation: int) -> None:
        """Replace the executor after a breakage seen at ``observed_generation``.

        Every job the breakage displaced reports it; only the first report
        of a generation rebuilds, later ones find the generation advanced
        and return.  The new executor runs the same :func:`_warm_worker`
        initializer.  The old one is shut down without waiting: its workers
        are dead or dying, and the breakage has already failed its futures.
        """
        with self._lock:
            if self._closed or observed_generation != self.generation:
                return
            started = time.perf_counter()
            old, self._executor = self._executor, self._build_executor()
            old.shutdown(wait=False)
            elapsed = time.perf_counter() - started
            self.generation += 1
            self.health.broken_pool_events += 1
            self.health.respawns += 1
            self.health.last_recovery_seconds = elapsed
            self.health.total_recovery_seconds += elapsed

    def submit(self, worker, *args, **kwargs):
        return self.executor.submit(worker, *args, **kwargs)

    def worker_pids(self) -> list[int]:
        """PIDs of the currently live worker processes (spawned-so-far)."""
        processes = getattr(self.executor, "_processes", None) or {}
        return sorted(processes)

    def shutdown(self, wait: bool = True) -> None:
        with self._lock:
            self._closed = True
            executor = self._executor
        executor.shutdown(wait=wait)

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.shutdown()


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
