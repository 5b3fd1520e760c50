"""Public end-to-end API: the FPSA compiler, its pass pipeline, the
per-process stage cache, the warm worker pool and the (batch) deployment
helpers.  The one memory shared across processes is the artifact store
(:mod:`repro.service.store`)."""

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
})

__all__ = [
    "FPSACompiler",
    "DeploymentResult",
    "deploy",
    "deploy_model",
    "WorkerPool",
    "StageCache",
    "CacheStats",
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
