"""Public end-to-end API: the FPSA compiler, its pass pipeline, the stage
cache (in-memory + cross-process shared tiers), the warm worker pool and
the (batch) deployment helpers."""

from .api import WorkerPool, deploy, deploy_model
from .cache import CacheStats, StageCache, default_cache
from .compiler import FPSACompiler
from .pipeline import (
    CompileContext,
    CompileOptions,
    CompilePass,
    PassDependencyError,
    PassError,
    PassManager,
    PassTiming,
    UnknownPassError,
    available_passes,
    default_pass_names,
    register_pass,
    resolve_passes,
)
from .result import DeploymentResult
from .shared_cache import SharedStageCache, shared_cache_from_env

__all__ = [
    "FPSACompiler",
    "DeploymentResult",
    "deploy",
    "deploy_model",
    "WorkerPool",
    "StageCache",
    "CacheStats",
    "SharedStageCache",
    "shared_cache_from_env",
    "default_cache",
    "CompileContext",
    "CompileOptions",
    "CompilePass",
    "PassManager",
    "PassTiming",
    "PassError",
    "PassDependencyError",
    "UnknownPassError",
    "available_passes",
    "default_pass_names",
    "register_pass",
    "resolve_passes",
]
