"""Chip-configuration (bitstream) generation — the final output of the flow."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".bitstream": (
        "BufferConfig",
        "ControlConfig",
        "CrossbarConfig",
        "FPSABitstream",
        "RoutingSwitchConfig",
        "generate_bitstream",
    ),
    ".passes": ("BitstreamPass",),
})

__all__ = [
    "BitstreamPass",
    "CrossbarConfig",
    "RoutingSwitchConfig",
    "ControlConfig",
    "BufferConfig",
    "FPSABitstream",
    "generate_bitstream",
]
