"""Differential fuzzing for the FPSA toolchain.

:mod:`.generate` turns a seed into valid random :class:`ModelSpec`\\ s,
:mod:`.oracle` compiles each spec across a configuration lattice and
diffs the outcomes, :mod:`.shrinker` delta-debugs failures to minimal
reproducers, and :mod:`.campaign` drives whole campaigns (the engine
behind ``repro fuzz``).
"""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".campaign": ("CampaignFinding", "CampaignReport", "default_campaign_seed", "run_campaign"),
    ".generate": (
        "LAYER_KINDS",
        "SIZE_CLASSES",
        "LayerSpec",
        "ModelSpec",
        "build_graph",
        "estimate_pes",
        "generate_spec",
        "generate_specs",
    ),
    ".oracle": ("CONFIG_GROUPS", "Finding", "Outcome", "SpecCheck", "check_spec", "compile_spec"),
    ".shrinker": ("ShrinkResult", "shrink", "spec_size"),
})

__all__ = [
    "LAYER_KINDS",
    "SIZE_CLASSES",
    "CONFIG_GROUPS",
    "LayerSpec",
    "ModelSpec",
    "build_graph",
    "estimate_pes",
    "generate_spec",
    "generate_specs",
    "Outcome",
    "Finding",
    "SpecCheck",
    "check_spec",
    "compile_spec",
    "ShrinkResult",
    "shrink",
    "spec_size",
    "CampaignFinding",
    "CampaignReport",
    "default_campaign_seed",
    "run_campaign",
]
