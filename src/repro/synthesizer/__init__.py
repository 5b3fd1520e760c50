"""The neural synthesizer: computational graph -> core-op graph."""

from .coreop import (
    GRAPH_INPUT,
    GRAPH_OUTPUT,
    CoreOpGraph,
    GroupEdge,
    WeightGroup,
)
from .lowering import LoweringContext, LoweringError
from .passes import SynthesisPass
from .splitting import Tile, TilePlan, plan_tiling, reduction_tree_width
from .synthesizer import NeuralSynthesizer, SynthesisOptions, synthesize

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
