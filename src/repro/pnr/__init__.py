"""Placement & routing on the island-style reconfigurable fabric."""

from .fabric import FabricGrid, Site
from .passes import PnRPass
from .placement import Placement
from .pnr import PlaceAndRoute, PnRResult
from .routing import PathFinderRouter, RoutedNet, RoutingError, RoutingResult
from .rrgraph import RoutingResourceGraph, RRNode
from .timing import NetTiming, TimingReport, analyze_timing

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
