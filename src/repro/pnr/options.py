"""Execution options of the P&R engine.

:class:`PnROptions` holds *how* the P&R flow executes, never *what* it
computes: ``jobs`` is the only knob, and any value produces bit-identical
placements and routings for the same seed — only wall-clock timers may
differ.  That is why it is absent from every cache key.
"""

from __future__ import annotations

import os
from dataclasses import dataclass

from ..errors import InvalidRequestError

__all__ = ["PnROptions"]


@dataclass(frozen=True)
class PnROptions:
    """The execution knob of the P&R engine."""

    #: worker threads for region-batch evaluation and congestion-domain
    #: routing.  ``None`` means 1 (serial execution, identical results);
    #: larger values are clamped to the machine's CPU count — results are
    #: bit-identical for any value, so oversubscribing cores is pure loss.
    jobs: int | None = None

    def __post_init__(self) -> None:
        if self.jobs is not None and self.jobs < 1:
            raise InvalidRequestError("pnr jobs must be >= 1")

    def effective_jobs(self) -> int:
        if self.jobs is None:
            return 1
        return max(1, min(self.jobs, os.cpu_count() or 1))
