"""Deterministic, seeded fault injection for the serving runtime.

A :class:`FaultPlan` is a JSON-round-trippable list of :class:`FaultSpec`
entries, each naming an injection *site* (a string the instrumented code
passes to :func:`fire`), a fault *kind*, and matching/firing constraints.
A plan has one switch, the ``REPRO_FAULT_PLAN`` environment variable —
either inline JSON (starts with ``{``) or a path to a JSON file.  Every
worker process, including one a pool respawns, inherits it; no request,
compile option or wire field carries a plan.

Because firing decisions depend only on the plan and per-process occurrence
counters (never on wall clock or unseeded randomness), every injected fault
is replayable: the same plan against the same workload fires at the same
logical points.  The chaos gate (``repro chaos``) builds on that to
prove the runtime serves every job bit-identically under a hostile plan.

Fault kinds
-----------
``crash``
    ``os._exit(CRASH_EXIT_CODE)`` — the worker dies without cleanup, which
    breaks a ``ProcessPoolExecutor`` and exercises pool supervision.
``hang``
    ``time.sleep(spec.seconds)`` — a stalled worker, for deadline tests.
``io_error``
    raises :class:`~repro.errors.TransientIOError` (an ``OSError``), which
    the job layer retries.
``corrupt``
    :func:`fire` *returns* the spec instead of acting, so an instrumented
    write path can corrupt its own payload.

The one site instrumented is ``worker-compile`` (fired with the request's
``model``/``duplication_degree``/``num_chips`` and the retry ``attempt``).
"""

from __future__ import annotations

import os
import threading
import time
from dataclasses import dataclass, field
from typing import Any, Mapping

from .errors import InvalidRequestError, TransientIOError
from .wire import WireRecord

__all__ = [
    "FAULT_PLAN_ENV",
    "CRASH_EXIT_CODE",
    "FAULT_KINDS",
    "KIND_CRASH",
    "KIND_HANG",
    "KIND_IO_ERROR",
    "KIND_CORRUPT",
    "SITE_WORKER_COMPILE",
    "FaultSpec",
    "FaultPlan",
    "FaultInjector",
    "active_injector",
    "fire",
]

#: environment variable holding an inline JSON plan or a path to one.
FAULT_PLAN_ENV = "REPRO_FAULT_PLAN"

#: exit status of an injected worker crash (recognizable in waitpid output).
CRASH_EXIT_CODE = 17

KIND_CRASH = "crash"
KIND_HANG = "hang"
KIND_IO_ERROR = "io_error"
KIND_CORRUPT = "corrupt"
FAULT_KINDS = (KIND_CRASH, KIND_HANG, KIND_IO_ERROR, KIND_CORRUPT)

SITE_WORKER_COMPILE = "worker-compile"


@dataclass(frozen=True)
class FaultSpec(WireRecord):
    """One injectable fault: where it fires, what it does, and how often.

    Parameters
    ----------
    site:
        Injection site name passed by the instrumented code to :func:`fire`.
    kind:
        One of :data:`FAULT_KINDS`.
    match:
        Optional subset-match against the keyword context the site fires
        with; the spec is eligible only when every ``match`` item equals the
        corresponding context item (e.g. ``{"model": "LeNet", "attempt": 0}``
        fires only on the first attempt of LeNet jobs, which keeps crash
        faults self-limiting across retries).
    at:
        Fire only from the ``at``-th *eligible* occurrence onward (0-based,
        counted per process and per spec).
    times:
        Maximum number of firings per process (default 1).
    seconds:
        Sleep duration for ``hang`` faults.
    """

    site: str
    kind: str
    match: Mapping[str, Any] = field(default_factory=dict)
    at: int = 0
    times: int = 1
    seconds: float = 0.1

    def __post_init__(self) -> None:
        if not isinstance(self.site, str) or not self.site:
            raise InvalidRequestError(
                f"fault site must be a non-empty string, got {self.site!r}"
            )
        if self.kind not in FAULT_KINDS:
            raise InvalidRequestError(
                f"fault kind must be one of {FAULT_KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.match, Mapping):
            raise InvalidRequestError(
                f"fault match must be a mapping, got {type(self.match).__name__}"
            )
        if not isinstance(self.at, int) or isinstance(self.at, bool) or self.at < 0:
            raise InvalidRequestError(f"fault at must be an int >= 0, got {self.at!r}")
        if (
            not isinstance(self.times, int)
            or isinstance(self.times, bool)
            or self.times < 1
        ):
            raise InvalidRequestError(
                f"fault times must be an int >= 1, got {self.times!r}"
            )
        if (
            not isinstance(self.seconds, (int, float))
            or isinstance(self.seconds, bool)
            or self.seconds < 0
        ):
            raise InvalidRequestError(
                f"fault seconds must be a number >= 0, got {self.seconds!r}"
            )

    def matches(self, context: Mapping[str, Any]) -> bool:
        """Whether the fire-site context satisfies every ``match`` item."""
        return all(context.get(k) == v for k, v in self.match.items())


@dataclass(frozen=True)
class FaultPlan(WireRecord):
    """A seeded, serializable collection of :class:`FaultSpec` entries."""

    faults: tuple[FaultSpec, ...] = ()
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "faults", tuple(self.faults))
        for spec in self.faults:
            if not isinstance(spec, FaultSpec):
                raise InvalidRequestError(
                    f"fault plan entries must be FaultSpec, got {type(spec).__name__}"
                )
        if not isinstance(self.seed, int) or isinstance(self.seed, bool):
            raise InvalidRequestError(
                f"fault plan seed must be an int, got {self.seed!r}"
            )

    @classmethod
    def from_env_value(cls, value: str) -> "FaultPlan":
        """Parse a ``REPRO_FAULT_PLAN`` value: inline JSON or a file path."""
        text = value.strip()
        if not text.startswith("{"):
            try:
                with open(text, "r", encoding="utf-8") as handle:
                    text = handle.read()
            except OSError as exc:
                raise InvalidRequestError(
                    f"cannot read fault plan file {value!r}: {exc}"
                ) from exc
        return cls.from_json(text)


class FaultInjector:
    """Executes a :class:`FaultPlan` against :func:`fire` call sites.

    Occurrence counters are per process and per spec, guarded by a lock so
    concurrent worker threads observe a consistent firing schedule.
    """

    def __init__(self, plan: FaultPlan):
        self.plan = plan
        self._lock = threading.Lock()
        self._eligible_counts: list[int] = [0] * len(plan.faults)
        self._fired_counts: list[int] = [0] * len(plan.faults)

    def fired(self) -> int:
        """Total firings so far in this process."""
        with self._lock:
            return sum(self._fired_counts)

    def counts(self) -> list[int]:
        """Firings so far in this process, per spec of the plan."""
        with self._lock:
            return list(self._fired_counts)

    def fire(self, site: str, **context: Any) -> FaultSpec | None:
        """Fire the first armed spec matching ``site``/``context``, if any.

        ``crash``/``hang``/``io_error`` act directly; a ``corrupt`` spec is
        returned to the caller, which owns the payload to damage.  Returns
        ``None`` when nothing fires.
        """
        spec = None
        with self._lock:
            for index, candidate in enumerate(self.plan.faults):
                if candidate.site != site or not candidate.matches(context):
                    continue
                occurrence = self._eligible_counts[index]
                self._eligible_counts[index] += 1
                if occurrence < candidate.at:
                    continue
                if self._fired_counts[index] >= candidate.times:
                    continue
                self._fired_counts[index] += 1
                spec = candidate
                break
        if spec is None:
            return None
        if spec.kind == KIND_CRASH:
            os._exit(CRASH_EXIT_CODE)
        if spec.kind == KIND_HANG:
            time.sleep(spec.seconds)
            return None
        if spec.kind == KIND_IO_ERROR:
            raise TransientIOError(
                f"injected transient IO fault at {site}",
                details={"site": site, **{k: v for k, v in context.items()}},
            )
        return spec  # KIND_CORRUPT: caller damages its own payload


_STATE_LOCK = threading.Lock()
#: (env value, injector) pair lazily built from REPRO_FAULT_PLAN.
_FROM_ENV: tuple[str, FaultInjector] | None = None


def active_injector() -> FaultInjector | None:
    """The injector of ``REPRO_FAULT_PLAN``, or ``None`` when it is unset.

    The environment is re-read on every call so tests (and workers forked
    before the variable changed) track the current value; the injector is
    rebuilt only when the value actually changes, preserving counters.
    """
    global _FROM_ENV
    with _STATE_LOCK:
        value = os.environ.get(FAULT_PLAN_ENV)
        if not value:
            _FROM_ENV = None
            return None
        if _FROM_ENV is not None and _FROM_ENV[0] == value:
            return _FROM_ENV[1]
        injector = FaultInjector(FaultPlan.from_env_value(value))
        _FROM_ENV = (value, injector)
        return injector


def fire(site: str, **context: Any) -> FaultSpec | None:
    """Fire at ``site`` through the active injector; no-op without one."""
    injector = active_injector()
    if injector is None:
        return None
    return injector.fire(site, **context)
