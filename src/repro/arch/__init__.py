"""Hardware models of the FPSA architecture.

This subpackage contains the circuit/block-level substrate the rest of the
system stack is built on:

* :mod:`repro.arch.params` — the 45 nm function-block parameters (Table 1)
  and the chip-level :class:`~repro.arch.params.FPSAConfig`.
* :mod:`repro.arch.reram` — ReRAM cell / crossbar device models, including
  the *splice* and *add* multi-cell weight representations.
* :mod:`repro.arch.spiking` — cycle-level spiking PE behaviour
  (integrate-and-fire neurons, spike subtracters, spike trains).
* :mod:`repro.arch.pe` — the processing element (cost + function).
* :mod:`repro.arch.smb` — spiking memory blocks (on-chip buffering).
* :mod:`repro.arch.clb` — configurable logic blocks (control logic).
* :mod:`repro.arch.energy` — chip-level energy aggregation.
"""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".clb": ("ConfigurableLogicBlock", "IterationCounter", "LookUpTable"),
    ".energy": ("BlockMix", "EnergyReport", "estimate_energy"),
    ".params": (
        "BlockParams",
        "CLBParams",
        "FPSAConfig",
        "PEParams",
        "PrimePEParams",
        "RoutingParams",
        "SMBParams",
    ),
    ".pe": ("PECost", "ProcessingElement"),
    ".reram": (
        "AddComposition",
        "ReRAMCellModel",
        "ReRAMCrossbar",
        "SpliceComposition",
        "make_composition",
    ),
    ".smb": ("BufferRequirement", "SMBFullError", "SpikingMemoryBlock"),
    ".spiking": (
        "IFNeuron",
        "SpikeSubtracter",
        "SpikeTrain",
        "SpikingCrossbarPE",
        "decode_from_counts",
        "encode_to_counts",
    ),
})

__all__ = [
    "BlockParams",
    "PEParams",
    "SMBParams",
    "CLBParams",
    "RoutingParams",
    "PrimePEParams",
    "FPSAConfig",
    "ReRAMCellModel",
    "ReRAMCrossbar",
    "SpliceComposition",
    "AddComposition",
    "make_composition",
    "SpikeTrain",
    "IFNeuron",
    "SpikeSubtracter",
    "SpikingCrossbarPE",
    "encode_to_counts",
    "decode_from_counts",
    "PECost",
    "ProcessingElement",
    "SpikingMemoryBlock",
    "SMBFullError",
    "BufferRequirement",
    "ConfigurableLogicBlock",
    "LookUpTable",
    "IterationCounter",
    "BlockMix",
    "EnergyReport",
    "estimate_energy",
]
