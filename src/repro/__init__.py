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

__version__ = "1.3.0"

from .core import (
    DeploymentResult,
    FPSACompiler,
    StageCache,
    deploy,
    deploy_model,
)
from .errors import (
    CapacityError,
    FPSAError,
    InvalidRequestError,
    MappingError,
    PnRError,
    SynthesisError,
    UnknownModelError,
)
from .partition import PartitionResult, partition_coreops
from .service import (
    ArtifactStore,
    CompileRequest,
    CompileResponse,
    FPSAClient,
    JobManager,
)

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
