"""The typed exception hierarchy of the FPSA toolchain.

Every error the compilation service can surface derives from
:class:`FPSAError`, carries a stable machine-readable ``code``, and maps to
(and back from) a structured error payload, so in-process callers catch
typed exceptions while wire-level callers receive the same information as
JSON (see :mod:`repro.service.schemas`).

The hierarchy is flat under the base class::

    FPSAError
      +-- InvalidRequestError   malformed request / argument (code invalid_request)
      +-- UnknownModelError     model name not in the zoo     (code unknown_model)
      +-- SynthesisError        neural-synthesizer failure    (code synthesis_error)
      +-- MappingError          spatial-to-temporal mapping   (code mapping_error)
      +-- PnRError              placement & routing failure   (code pnr_error)
      +-- CapacityError         design does not fit a budget  (code capacity_error)
      +-- VerificationError     IR invariant violated         (code verification_error)
      +-- WorkerCrashError      worker process died           (code worker_crash)    [retriable]
      +-- TransientIOError      transient cache/store IO      (code transient_io)    [retriable]
      +-- OverloadedError       admission control rejected    (code overloaded)      [retriable]
      +-- DeadlineExceededError per-job deadline expired      (code deadline_exceeded)

For backward compatibility each subclass also derives from the builtin
exception the toolchain historically raised at the same sites
(``ValueError``, ``TypeError``, ``KeyError``, ``RuntimeError``,
``OSError``, ``TimeoutError``), so pre-existing ``except ValueError`` /
``except OSError`` call sites keep working.

Errors whose class sets ``retriable = True`` describe conditions the
serving runtime may transparently retry (a dead worker, a transient IO
fault, a momentarily full admission queue); everything else is terminal —
resubmitting the identical request would fail the identical way.
:data:`RETRIABLE_CODES` is the wire-level view of that split.
"""

from __future__ import annotations

from typing import Any, Mapping

__all__ = [
    "FPSAError",
    "InvalidRequestError",
    "UnknownModelError",
    "SynthesisError",
    "MappingError",
    "PnRError",
    "CapacityError",
    "VerificationError",
    "WorkerCrashError",
    "TransientIOError",
    "OverloadedError",
    "DeadlineExceededError",
    "ERROR_CODES",
    "RETRIABLE_CODES",
    "error_from_payload",
]


class FPSAError(Exception):
    """Base class of every typed toolchain error.

    Parameters
    ----------
    message:
        Human-readable description.
    details:
        Optional JSON-serializable mapping with machine-readable context
        (offending values, budgets, model names, ...).
    """

    #: stable machine-readable identifier, also the payload ``code`` field.
    code: str = "fpsa_error"

    #: whether the serving runtime may transparently retry this error.
    retriable: bool = False

    def __init__(self, message: str, *, details: Mapping[str, Any] | None = None):
        super().__init__(message)
        self.message = str(message)
        self.details: dict[str, Any] = dict(details or {})

    def __str__(self) -> str:
        # KeyError (a base of UnknownModelError) would repr() the message;
        # always show it verbatim instead.
        return self.message

    def payload(self) -> dict[str, Any]:
        """The structured error payload responses carry for this error."""
        return {
            "code": self.code,
            "type": type(self).__name__,
            "message": self.message,
            "details": dict(self.details),
        }


class InvalidRequestError(FPSAError, ValueError, TypeError):
    """A request (or call argument) is malformed or out of range."""

    code = "invalid_request"


class UnknownModelError(FPSAError, KeyError):
    """A model name does not appear in the model zoo."""

    code = "unknown_model"


class SynthesisError(FPSAError, ValueError):
    """The neural synthesizer cannot lower the computational graph."""

    code = "synthesis_error"


class MappingError(FPSAError, ValueError):
    """The spatial-to-temporal mapper cannot map the core-op graph."""

    code = "mapping_error"


class PnRError(FPSAError, RuntimeError):
    """Placement & routing failed on the function-block netlist."""

    code = "pnr_error"


class CapacityError(FPSAError, ValueError):
    """The design does not fit a stated resource budget (PEs, sites, ...)."""

    code = "capacity_error"


class VerificationError(FPSAError):
    """An IR artifact violates a structural invariant.

    Raised by the verifier passes (:mod:`repro.analysis.verify`): the
    message names the pipeline stage, the invariant, and the offending ids,
    which also appear machine-readably in ``details`` under ``stage``,
    ``invariant`` and ``ids``.
    """

    code = "verification_error"

    def __init__(
        self,
        message: str,
        *,
        stage: str = "",
        invariant: str = "",
        ids: tuple | list = (),
        details: Mapping[str, Any] | None = None,
    ):
        merged: dict[str, Any] = dict(details or {})
        if stage:
            merged.setdefault("stage", stage)
        if invariant:
            merged.setdefault("invariant", invariant)
        if ids:
            merged.setdefault("ids", [str(i) for i in ids])
        super().__init__(message, details=merged)
        self.stage = str(merged.get("stage", ""))
        self.invariant = str(merged.get("invariant", ""))
        self.ids = tuple(merged.get("ids", ()))


class WorkerCrashError(FPSAError):
    """A worker process died (or the pool broke) while running a job.

    The crash says nothing about the request itself, so the job is safe to
    retry on a healthy pool — the supervision layer does exactly that.
    """

    code = "worker_crash"
    retriable = True


class TransientIOError(FPSAError, OSError):
    """A transient IO fault (disk full, EPERM, torn read).

    When one escapes into a job result it is retriable — the request is
    well-formed and a later attempt may find the IO healthy again.
    """

    code = "transient_io"
    retriable = True


class OverloadedError(FPSAError):
    """Admission control rejected a job: the queue is at its depth cap.

    Retriable by construction — the caller should back off and resubmit
    once in-flight jobs drain.
    """

    code = "overloaded"
    retriable = True


class DeadlineExceededError(FPSAError, TimeoutError):
    """A job's per-request deadline expired before a result was published.

    Not retriable: a retry would spend the same wall-clock budget again.
    ``details`` carries the ``job_id`` and the deadline that expired.
    """

    code = "deadline_exceeded"


#: payload ``code`` -> exception class, for rehydrating wire errors.
ERROR_CODES: dict[str, type[FPSAError]] = {
    cls.code: cls
    for cls in (
        FPSAError,
        InvalidRequestError,
        UnknownModelError,
        SynthesisError,
        MappingError,
        PnRError,
        CapacityError,
        VerificationError,
        WorkerCrashError,
        TransientIOError,
        OverloadedError,
        DeadlineExceededError,
    )
}

#: payload codes the serving runtime treats as retriable faults.
RETRIABLE_CODES: frozenset[str] = frozenset(
    code for code, cls in ERROR_CODES.items() if cls.retriable
)


def error_from_payload(payload: Mapping[str, Any]) -> FPSAError:
    """Reconstruct a typed exception from a structured error payload.

    Unknown codes (a newer server, or a wrapped non-FPSA exception) degrade
    to the :class:`FPSAError` base class rather than failing.
    """
    cls = ERROR_CODES.get(str(payload.get("code", "")), FPSAError)
    return cls(
        str(payload.get("message", "unknown error")),
        details=payload.get("details") or {},
    )
