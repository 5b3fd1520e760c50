"""Execution options of the P&R engine.

:class:`PnROptions` holds *how* the P&R flow executes, never *what* it
computes.  Its one field, ``jobs``, is validated and otherwise ignored:
P&R runs on the calling thread, so every value produces the same
placements and routings, and it is absent from every cache key.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import InvalidRequestError

__all__ = ["PnROptions"]


@dataclass(frozen=True)
class PnROptions:
    """The (inert) execution knob of the P&R engine."""

    #: accepted, ignored (threads measured 0.73-0.80x): nothing reads it.
    jobs: int | None = None

    def __post_init__(self) -> None:
        if self.jobs is not None and self.jobs < 1:
            raise InvalidRequestError("pnr jobs must be >= 1")
