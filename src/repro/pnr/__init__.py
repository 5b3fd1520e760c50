"""Placement & routing on the island-style reconfigurable fabric."""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".fabric": ("FabricGrid", "Site"),
    ".passes": ("PnRPass",),
    ".placement": ("Placement",),
    ".pnr": ("PlaceAndRoute", "PnRResult"),
    ".routing": ("PathFinderRouter", "RoutedNet", "RoutingError", "RoutingResult"),
    ".rrgraph": ("RoutingResourceGraph", "RRNode"),
    ".timing": ("NetTiming", "TimingReport", "analyze_timing"),
})

__all__ = [
    "Site",
    "FabricGrid",
    "RRNode",
    "RoutingResourceGraph",
    "Placement",
    "RoutedNet",
    "RoutingResult",
    "RoutingError",
    "PathFinderRouter",
    "NetTiming",
    "TimingReport",
    "analyze_timing",
    "PnRResult",
    "PlaceAndRoute",
    "PnRPass",
]
