"""The neural synthesizer: computational graph -> core-op graph."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".coreop": ("GRAPH_INPUT", "GRAPH_OUTPUT", "CoreOpGraph", "GroupEdge", "WeightGroup"),
    ".lowering": ("LoweringContext", "LoweringError"),
    ".passes": ("SynthesisPass",),
    ".splitting": ("Tile", "TilePlan", "plan_tiling", "reduction_tree_width"),
    ".synthesizer": ("NeuralSynthesizer", "SynthesisOptions", "synthesize"),
})

__all__ = [
    "WeightGroup",
    "GroupEdge",
    "CoreOpGraph",
    "GRAPH_INPUT",
    "GRAPH_OUTPUT",
    "LoweringContext",
    "LoweringError",
    "Tile",
    "TilePlan",
    "plan_tiling",
    "reduction_tree_width",
    "NeuralSynthesizer",
    "SynthesisOptions",
    "synthesize",
    "SynthesisPass",
]
