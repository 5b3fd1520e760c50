"""Convenience functions for the most common library entry points.

:func:`deploy` / :func:`deploy_model` compile one graph or one zoo model in
this process.  Batches of requests go through
:meth:`repro.service.client.FPSAClient.compile_batch` /
:class:`~repro.service.jobs.JobManager`, which fan out over a
:class:`WorkerPool`: *persistent, warm* worker processes, forked once
after the parent imported the model zoo and the pass pipeline, each
owned by the pool through one pipe.  The shards of one compile
(:mod:`repro.partition.backend`) fan out over a ``WorkerPool`` too.  A
worker compiles against its copy of the stage cache it is handed
(:meth:`StageCache.__reduce__`); the pool configures no cache.  A worker that dies fails only the job it was
running; the pool forks a replacement and counts both in
:class:`PoolHealth`.
"""

from __future__ import annotations

import atexit
import os
import threading
import time
import weakref
from collections import deque
from concurrent.futures import Future
from dataclasses import dataclass
from typing import Any

from ..arch.params import FPSAConfig
from ..errors import InvalidRequestError, WorkerCrashError
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
    """How often a :class:`WorkerPool`'s workers died and were replaced."""

    #: worker processes that died (each fails at most the one job it ran).
    broken_pool_events: int = 0
    #: replacement workers forked.
    respawns: int = 0
    #: wall-clock seconds the most recent replacement took to fork.
    last_recovery_seconds: float = 0.0
    #: wall-clock seconds across all replacements.
    total_recovery_seconds: float = 0.0


def _warm_worker() -> None:
    """Pay a worker's cold-start imports exactly once.

    Imports the model zoo and every built-in pass module, so the first
    payload a warm worker receives compiles without importing them.  A pool
    runs it in the parent before it forks, so every worker and every
    replacement inherits the modules.  The P&R engine (numpy) is not among
    them: a worker imports it on its first job that places.
    """
    from ..models import zoo as _zoo  # noqa: F401 - import is the warmup
    from .pipeline import available_passes

    available_passes()  # imports every layer's pass module


def _fault_firings(reported: list) -> tuple[list[int] | None, list]:
    """The fault-plan firings of this process since ``reported``, per spec,
    and the new baseline; ``None`` when nothing fired."""
    from .. import faults

    try:
        injector = faults.active_injector()
    except InvalidRequestError:  # a plan that does not parse fired nothing
        injector = None
    counts = injector.counts() if injector is not None else []
    if len(counts) != len(reported):
        reported = [0] * len(counts)
    fired = [now - before for now, before in zip(counts, reported, strict=True)]
    return (fired if any(fired) else None), counts


def _work(conn, inherited) -> None:
    """A worker's life: answer each ``(fn, args, kwargs)`` the parent sends
    with ``(ok, result or exception, fault firings)`` until the parent
    closes its end.  An answer that does not pickle is answered with the
    error instead; a job that exits or is interrupted ends the worker."""
    for other in inherited:  # the parent's ends of every pipe
        other.close()
    reported: list[int] = []
    while True:
        try:
            fn, args, kwargs = conn.recv()
        except EOFError:
            return
        try:
            answer = (True, fn(*args, **kwargs))
        except Exception as exc:  # noqa: BLE001 - every failure is the job's answer
            answer = (False, exc)
        fired, reported = _fault_firings(reported)
        try:
            conn.send((*answer, fired))
        except OSError:  # the parent is gone
            return
        except Exception as exc:  # noqa: BLE001 - the answer did not pickle
            conn.send((False, RuntimeError(f"the answer did not pickle: {exc!r}"), fired))


class _Worker:
    """One owned worker process, the parent's end of its pipe and the
    future of the job it runs (``None`` while idle)."""

    __slots__ = ("process", "conn", "future")

    def __init__(self, process, conn):
        self.process, self.conn, self.future = process, conn, None


#: pools whose workers live: a worker forked by any of them closes their
#: ends of the pipes, and interpreter exit stops them.
_LIVE_POOLS: "weakref.WeakSet[WorkerPool]" = weakref.WeakSet()


def _stop_live_pools() -> None:
    """At interpreter exit, before ``multiprocessing`` joins its children:
    end the workers of every pool not shut down, so that join returns."""
    for pool in list(_LIVE_POOLS):
        with pool._lock:
            pool._closed = True
            pool._queue.clear()
            workers = list(pool._workers.values())
        for worker in workers:
            worker.process.terminate()
        collector = getattr(pool, "_collector", None)  # None: its constructor failed
        if collector is not None:
            collector.join(timeout=5)


class WorkerPool:
    """Persistent, warm compile worker processes that the pool owns.

    A ``WorkerPool`` is created once and reused: pass it to
    :class:`~repro.service.jobs.JobManager` (``pool=``) or ``submit`` to
    it directly.  Its ``max_workers`` processes are forked when it is
    built, after the parent imported the zoo and the pass pipeline, so
    every worker starts warm; a worker imports the P&R engine on its first
    job that places.  A job compiles against the stage cache it is handed
    (its copy in the worker keeps its memory across jobs); the pool itself
    configures no cache.

    Each worker has one duplex pipe.  :meth:`submit` writes a job straight
    to an idle worker's pipe, or queues it until a worker is free, and
    returns a :class:`~concurrent.futures.Future`; one parent thread waits
    on every pipe at once and completes the futures.  A future carries
    ``fault_firings``, the per-spec firings of the worker's fault plan
    since its previous answer (``None`` when none fired; see
    :mod:`repro.faults`).  A job still queued can be cancelled; one on a
    worker runs.

    End of file on a pipe is that one worker's death: the job it ran fails
    with a retriable :class:`~repro.errors.WorkerCrashError`, a
    replacement is forked, and :attr:`health` counts both.  No other job
    notices.  A pool that was shut down refuses new jobs and finishes the
    ones it holds.

    Parameters
    ----------
    max_workers:
        Worker processes; ``None`` picks ``min(cpu_count, 8)``.
    shared_cache_dir:
        Ignored: kept for callers that still pass it.
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
        # multiprocessing's exit handler joins the children; registered
        # after it, ours runs first and ends the workers it would wait for
        import multiprocessing.util

        atexit.unregister(_stop_live_pools)
        atexit.register(_stop_live_pools)
        _warm_worker()
        self.max_workers = max_workers
        self.health = PoolHealth()
        self._context = multiprocessing.get_context("fork")
        self._lock = threading.Lock()
        self._closed = False
        #: the jobs no worker was free for, first submitted first.
        self._queue: deque[tuple[Future, tuple]] = deque()
        #: every live worker, by the parent's end of its pipe.
        self._workers: dict[Any, _Worker] = {}
        self._idle: list[_Worker] = []
        # wakes the collector out of its wait (shutdown)
        self._wakeup, self._wake = self._context.Pipe(duplex=False)
        for _ in range(max_workers):
            self._dispatch(self._spawn())
        self._collector = threading.Thread(target=self._collect, name="WorkerPool", daemon=True)
        self._collector.start()

    def _spawn(self) -> _Worker:
        """Fork one worker; it closes the parent's ends it inherited."""
        _LIVE_POOLS.add(self)
        conn, child = self._context.Pipe()
        inherited = [conn] + [
            end
            for pool in list(_LIVE_POOLS)
            for end in [*list(pool._workers), pool._wakeup, pool._wake]
        ]
        process = self._context.Process(target=_work, args=(child, inherited))
        process.start()
        child.close()
        worker = _Worker(process, conn)
        with self._lock:
            self._workers[conn] = worker
        return worker

    def submit(self, fn, /, *args, **kwargs) -> Future:
        """Run ``fn(*args, **kwargs)`` on a worker; its future at once."""
        future: Future = Future()
        job = (fn, args, kwargs)
        with self._lock:
            if self._closed:
                # the ``Executor`` contract, which ``JobManager`` relies on
                raise RuntimeError("cannot schedule new futures after shutdown")  # repro-lint: disable=ERR001
            if not self._idle:
                self._queue.append((future, job))
                return future
            worker = self._idle.pop()  # the one that answered last
            worker.future = future
            future.set_running_or_notify_cancel()
        self._send(worker, job)
        return future

    def _send(self, worker: _Worker, job: tuple) -> None:
        try:
            worker.conn.send(job)
        except OSError:
            pass  # the worker died: its end of file fails the job
        except Exception as exc:  # noqa: BLE001 - the job did not pickle
            future = worker.future
            self._dispatch(worker)
            future.set_exception(exc)

    def _dispatch(self, worker: _Worker) -> None:
        """Hand a free worker the first queued job not cancelled, or idle it."""
        with self._lock:
            while self._queue:
                future, job = self._queue.popleft()
                if future.set_running_or_notify_cancel():
                    worker.future = future
                    break
            else:
                worker.future = None
                self._idle.append(worker)
                return
        self._send(worker, job)

    def _collect(self) -> None:
        """The parent's one thread: answers and deaths on every pipe."""
        from multiprocessing.connection import wait

        while True:
            with self._lock:
                if self._closed and not self._queue and len(self._idle) == len(self._workers):
                    break
                conns = [*self._workers, self._wakeup]
            for conn in wait(conns):
                if conn is self._wakeup:
                    self._wakeup.recv_bytes()
                else:
                    self._receive(self._workers[conn])
        self._stop()

    def _receive(self, worker: _Worker) -> None:
        try:
            ok, value, fired = worker.conn.recv()
        except (EOFError, OSError):
            self._lost(worker)
            return
        except Exception as exc:  # noqa: BLE001 - an answer that did not unpickle
            ok, value, fired = False, exc, None
        future = worker.future
        self._dispatch(worker)  # the next job starts before this one is completed
        future.fault_firings = fired
        if ok:
            future.set_result(value)
        else:
            future.set_exception(value)

    def _lost(self, worker: _Worker) -> None:
        """One worker died: reap it, fork its replacement (while there is
        work for it) and fail the job it ran."""
        worker.conn.close()
        worker.process.join(5)
        if worker.process.is_alive():  # a broken pipe, not an exit
            worker.process.kill()
            worker.process.join()
        with self._lock:
            del self._workers[worker.conn]
            if worker in self._idle:
                self._idle.remove(worker)
            self.health.broken_pool_events += 1
            replace = not self._closed or bool(self._queue)
        if replace:
            started = time.perf_counter()
            replacement = self._spawn()
            elapsed = time.perf_counter() - started
            self.health.respawns += 1
            self.health.last_recovery_seconds = elapsed
            self.health.total_recovery_seconds += elapsed
            self._dispatch(replacement)
        future = worker.future
        if future is not None:
            pid, code = worker.process.pid, worker.process.exitcode
            future.set_exception(WorkerCrashError(
                f"worker process {pid} died (exit code {code})",
                details={"pid": pid, "exit_code": code},
            ))

    def worker_pids(self) -> list[int]:
        """PIDs of the live worker processes."""
        with self._lock:
            return sorted(worker.process.pid for worker in self._workers.values())

    def shutdown(self, wait: bool = True) -> None:
        """Refuse new jobs; the workers exit once the jobs held are done
        (``wait``: block until then)."""
        with self._lock:
            closing, self._closed = not self._closed, True
        if closing:
            self._wake.send_bytes(b"")
        if wait and threading.current_thread() is not self._collector:
            self._collector.join()

    def _stop(self) -> None:
        """Close every pipe and reap every worker (each exits at end of
        file, after the job it runs, if any)."""
        with self._lock:
            self._closed = True
            workers = list(self._workers.values())
            self._workers.clear()
            self._idle.clear()
        for worker in workers:
            worker.conn.close()
        for worker in workers:
            worker.process.join()
        _LIVE_POOLS.discard(self)

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
