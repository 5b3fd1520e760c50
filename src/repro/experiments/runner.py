"""Run every experiment and collect the results (the EXPERIMENTS.md source).

The runner is a front-end of the service layer: experiment compiles flow
through :class:`repro.service.FPSAClient`, and failures surface as typed
:class:`~repro.errors.FPSAError`\\ s; ``repro experiments [--json]`` is its
command line.
"""

from __future__ import annotations

import importlib

from ..errors import InvalidRequestError
from .common import ExperimentResult

__all__ = ["run_all", "EXPERIMENTS"]

#: experiment id -> (module of this package, its zero-argument function
#: producing an ExperimentResult).  A module is imported only when one of
#: its experiments runs.
EXPERIMENTS = {
    "motivation": ("motivation", "run"),
    "table1": ("table1", "run"),
    "table2": ("table2", "run"),
    "fig2": ("fig2", "run"),
    "fig6": ("fig6", "run"),
    "fig7": ("fig7", "run"),
    "fig8": ("fig8", "run"),
    "fig9": ("fig9", "run"),
    "table3": ("table3", "run"),
    "ablation_spike_transmission": ("ablations", "run_spike_transmission"),
    "ablation_pooling_synthesis": ("ablations", "run_pooling_synthesis"),
    "ablation_speedup_decomposition": ("ablations", "run_speedup_decomposition"),
    "ablation_chip_partition_sweep": ("ablations", "run_chip_partition_sweep"),
}


def _run(name: str) -> ExperimentResult:
    module, function = EXPERIMENTS[name]
    return getattr(importlib.import_module(f".{module}", __package__), function)()


def run_all(names: list[str] | None = None) -> dict[str, ExperimentResult]:
    """Run the selected experiments (all of them by default).

    Unknown names raise :class:`~repro.errors.InvalidRequestError` before
    any experiment runs.
    """
    selected = names if names is not None else list(EXPERIMENTS)
    unknown = [name for name in selected if name not in EXPERIMENTS]
    if unknown:
        raise InvalidRequestError(
            f"unknown experiment(s) {unknown}; known: {sorted(EXPERIMENTS)}",
            details={"unknown": unknown, "known": sorted(EXPERIMENTS)},
        )
    return {name: _run(name) for name in selected}
