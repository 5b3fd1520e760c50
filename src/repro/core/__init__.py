"""Public end-to-end API: the FPSA compiler, its pass pipeline, the stage
cache (in-memory + cross-process shared tiers), the warm worker pool and
the (batch) deployment helpers."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".api": ("WorkerPool", "deploy", "deploy_model"),
    ".cache": ("CacheStats", "StageCache", "default_cache"),
    ".compiler": ("FPSACompiler",),
    ".pipeline": (
        "CompileContext",
        "CompileOptions",
        "CompilePass",
        "PassDependencyError",
        "PassError",
        "PassManager",
        "PassTiming",
        "UnknownPassError",
        "available_passes",
        "default_pass_names",
        "register_pass",
        "resolve_passes",
    ),
    ".result": ("DeploymentResult",),
    ".shared_cache": ("SharedStageCache", "shared_cache_from_env"),
})

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
