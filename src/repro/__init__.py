"""repro — a full-stack Python reproduction of FPSA (ASPLOS 2019).

FPSA (Field Programmable Synapse Array) is a reconfigurable ReRAM-based
neural-network accelerator together with the software system that deploys
deep neural networks onto it: a neural synthesizer, a spatial-to-temporal
mapper and a placement & routing tool.

The package is organised the same way as the paper's system stack:

* :mod:`repro.arch` — hardware models (PE / SMB / CLB / routing, Table 1).
* :mod:`repro.graph` — the computational-graph programming model.
* :mod:`repro.models` — the benchmark network zoo (Table 3).
* :mod:`repro.synthesizer` — the neural synthesizer (CG -> core-op graph).
* :mod:`repro.mapper` — the spatial-to-temporal mapper (core-ops -> netlist).
* :mod:`repro.partition` — multi-chip partitioned compilation (min-cut
  graph partitioner, per-chip parallel backend, inter-chip link model).
* :mod:`repro.pnr` — placement & routing on the island-style fabric.
* :mod:`repro.perf` — performance bounds and the analytic model.
* :mod:`repro.baselines` — PRIME, FP-PRIME, ISAAC and PipeLayer models.
* :mod:`repro.variation` — device variation and the splice/add study.
* :mod:`repro.experiments` — one module per paper figure/table.
* :mod:`repro.core` — the public end-to-end compiler API.
* :mod:`repro.service` — the versioned wire-level service layer
  (request/response schemas, job manager, artifact store).
* :mod:`repro.errors` — the typed :class:`FPSAError` exception hierarchy.
* :mod:`repro.chaos` — the serving runtime under a seeded fault plan,
  held to three absolute floors (``repro chaos``).
* :mod:`repro.seeding` — master-seed derivation for stochastic stages.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable

__version__ = "1.3.0"


def lazy_exports(
    package: str, exports: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The PEP 562 ``__getattr__`` and ``__dir__`` of a package that
    re-exports lazily.

    ``exports`` maps each submodule (``".core.compiler"``) to the public
    names it defines, and ``"."`` to the submodules exported as themselves
    (``experiments.table1``).  A name is imported on its first use and then
    kept in the package's namespace, so ``import repro.graph`` costs one
    module and ``from repro.graph import TensorSpec`` two.  No public name
    may share its defining module's name: importing the module would bind
    it over the package attribute, and the lookup here would never run.
    """
    owner = {name: module for module, names in exports.items() for name in names}
    namespace = importlib.import_module(package).__dict__

    def __getattr__(name: str) -> Any:
        try:
            module = owner[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        if module == ".":
            value = importlib.import_module("." + name, package)
        else:
            value = getattr(importlib.import_module(module, package), name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__


__getattr__, __dir__ = lazy_exports(__name__, {
    ".core.api": ("deploy", "deploy_model"),
    ".core.cache": ("StageCache",),
    ".core.compiler": ("FPSACompiler",),
    ".core.result": ("DeploymentResult",),
    ".errors": (
        "CapacityError",
        "FPSAError",
        "InvalidRequestError",
        "MappingError",
        "PnRError",
        "SynthesisError",
        "UnknownModelError",
    ),
    ".partition.partitioner": ("partition_coreops",),
    ".partition.plan": ("PartitionResult",),
    ".service.client": ("FPSAClient",),
    ".service.jobs": ("JobManager",),
    ".service.schemas": ("CompileRequest", "CompileResponse"),
    ".service.store": ("ArtifactStore",),
})

__all__ = [
    "FPSACompiler",
    "DeploymentResult",
    "deploy",
    "deploy_model",
    "PartitionResult",
    "partition_coreops",
    "StageCache",
    "FPSAClient",
    "CompileRequest",
    "CompileResponse",
    "JobManager",
    "ArtifactStore",
    "FPSAError",
    "InvalidRequestError",
    "UnknownModelError",
    "SynthesisError",
    "MappingError",
    "PnRError",
    "CapacityError",
    "__version__",
]
