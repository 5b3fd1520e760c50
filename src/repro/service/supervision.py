"""Worker-pool supervision: detect broken pools, rebuild them, keep score.

A ``ProcessPoolExecutor`` is poisoned the moment any worker dies: every
in-flight *and* future job fails with ``BrokenProcessPool``.  The
:class:`PoolSupervisor` turns that crash-the-world behaviour into a bounded
recovery: the job layer reports the breakage together with the pool
*generation* it observed, the supervisor rebuilds the pool exactly once per
generation (concurrent reports of the same breakage coalesce), and
:class:`PoolHealth` counters record what happened so ``repro chaos``
and ``ServingRuntime.stats()`` can surface it.

Lifecycle::

    generation 0 --(worker dies: BrokenProcessPool)--> note_breakage(0)
        -> health.broken_pool_events += 1
        -> rebuild()   (fresh executor; initializers re-run on first submit,
                        re-attaching the shared cache in each new worker)
        -> health.respawns += 1, recovery time recorded
        -> generation 1; displaced jobs resubmit against the new pool

The supervisor is generic over a ``rebuild`` callable; the
:class:`~repro.service.jobs.JobManager` hands it
:meth:`repro.core.api.WorkerPool.rebuild`, owned pool or given.
"""

from __future__ import annotations

import threading
import time
from dataclasses import asdict, dataclass
from typing import Any, Callable

__all__ = ["PoolHealth", "PoolSupervisor"]


@dataclass
class PoolHealth:
    """Counters describing how often a pool broke and how it recovered."""

    #: distinct pool breakages observed (concurrent reports coalesce).
    broken_pool_events: int = 0
    #: pool rebuilds performed (== generations advanced).
    respawns: int = 0
    #: job attempts that failed because the pool broke under them.
    jobs_displaced: int = 0
    #: wall-clock seconds the most recent rebuild took.
    last_recovery_seconds: float = 0.0
    #: wall-clock seconds across all rebuilds.
    total_recovery_seconds: float = 0.0

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)


class PoolSupervisor:
    """Rebuilds a broken worker pool exactly once per breakage.

    Parameters
    ----------
    rebuild:
        Zero-argument callable that replaces the broken executor with a
        fresh one (e.g. :meth:`repro.core.api.WorkerPool.rebuild`).
    """

    def __init__(self, rebuild: Callable[[], None]):
        self._rebuild = rebuild
        self._lock = threading.Lock()
        self._generation = 0
        self.health = PoolHealth()

    @property
    def generation(self) -> int:
        """Monotonic pool generation; advances by one per rebuild."""
        with self._lock:
            return self._generation

    def note_displaced(self, count: int = 1) -> None:
        """Record job attempts lost to a pool breakage."""
        with self._lock:
            self.health.jobs_displaced += count

    def note_breakage(self, observed_generation: int) -> int:
        """Heal the pool after a breakage observed at ``observed_generation``.

        Every job that fails with ``BrokenProcessPool`` calls this with the
        generation its attempt ran against; only the first report of each
        generation triggers a rebuild — later reports of the same breakage
        return immediately.  Returns the generation now in effect.
        """
        with self._lock:
            if observed_generation != self._generation:
                return self._generation
            self.health.broken_pool_events += 1
            started = time.perf_counter()
            self._rebuild()
            elapsed = time.perf_counter() - started
            self.health.respawns += 1
            self.health.last_recovery_seconds = elapsed
            self.health.total_recovery_seconds += elapsed
            self._generation += 1
            return self._generation
