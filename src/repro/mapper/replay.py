"""Mapping-side splice of the subgraph dedup cache.

:func:`map_with_dedup` reproduces :meth:`repro.mapper.mapper.
SpatialTemporalMapper.map`'s plain path (no PE-budget search, no detailed
schedule) with one structural shortcut:

* the per-group allocation decision — ``(tiles, duplication)`` — is
  memoized in the :class:`~repro.core.dedup.SubgraphStore`, keyed on the
  group's *local* structural digest plus the PE geometry and the effective
  pipeline pace.  The local digest (not the recursive cone digest) is the
  deliberate choice here: tiles depend only on ``rows``/``cols`` and the
  crossbar, duplication only on ``reuse`` and the pace, so keying on the
  cone would destroy exactly the cross-model hits (VGG11 -> VGG16) this
  cache exists for — cone digests diverge after the first differing layer.

Everything else — the allocation formulae, the capacity pre-flight, the
netlist construction and control plan — runs the exact code the legacy
path runs, so the result is bit-identical by construction.  When any
fragment was spliced in, the mapping is re-checked with the IR verifiers
before install; the caller falls back to the legacy path on any validation
failure.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from ..arch.params import FPSAConfig
from ..core.cache import fingerprint
from ..core.dedup import group_digest
from ..errors import CapacityError
from ..synthesizer.coreop import CoreOpGraph
from .allocation import AllocationResult, GroupAllocation, _balanced_duplication
from .control import plan_control
from .mapper import MappingResult
from .netlist import attach_control, build_datapath

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..core.dedup import DedupStats, SubgraphStore

__all__ = ["map_with_dedup"]


def _valid_fragment(value) -> bool:
    """Shape-check a stored ``(tiles, duplication)`` allocation fragment."""
    if not isinstance(value, tuple) or len(value) != 2:
        return False
    return all(
        isinstance(v, int) and not isinstance(v, bool) and v >= 1
        for v in value
    )


def map_with_dedup(
    coreops: CoreOpGraph,
    config: FPSAConfig,
    store: "SubgraphStore",
    stats: "DedupStats | None" = None,
    *,
    duplication_degree: int = 1,
    target_iterations: int | None = None,
    replication: int | None = None,
    max_pes: int | None = None,
) -> MappingResult | None:
    """Map ``coreops`` through the dedup store; ``None`` = fall back.

    Returns ``None`` (caller runs the legacy mapper, which raises the
    canonical typed errors for these inputs) when the graph has no groups
    or the pace parameters are invalid.

    Raises :class:`~repro.errors.CapacityError` exactly as the legacy
    mapper does when the allocation exceeds ``max_pes``.
    """
    groups = coreops.groups()
    if not groups or duplication_degree <= 0:
        return None
    if target_iterations is not None and target_iterations <= 0:
        return None
    if replication is not None and replication <= 0:
        return None

    pe = config.pe
    max_reuse = coreops.max_reuse_degree
    bottleneck_dup = min(duplication_degree, max_reuse)
    if target_iterations is None:
        target_iterations = math.ceil(max_reuse / bottleneck_dup)
    if replication is None:
        replication = max(1, duplication_degree // max_reuse)

    allocations: dict[str, GroupAllocation] = {}
    replayed = 0
    for group in groups:
        key = fingerprint(
            "map-group",
            group_digest(group),
            pe.rows,
            pe.logical_cols,
            target_iterations,
        )
        entry = store.get(key, validate=_valid_fragment)
        duplication = _balanced_duplication(group, target_iterations)
        if entry is not None and (
            entry[1] != duplication or entry[0] > group.rows * group.cols
        ):
            # plausible shape but inconsistent with this group: poisoned
            store.drop(key)
            entry = None
            if stats is not None:
                stats.errors += 1
        if entry is None:
            if stats is not None:
                stats.misses += 1
                stats.puts += 1
            tiles = group.min_pes(pe.rows, pe.logical_cols)
            store.put(key, (tiles, duplication))
        else:
            tiles = entry[0]
            replayed += 1
            if stats is not None:
                stats.hits += 1
        allocations[group.name] = GroupAllocation(
            group=group.name,
            tiles=tiles,
            duplication=duplication,
            reuse=group.reuse,
        )
    allocation = AllocationResult(
        model=coreops.name,
        duplication_degree=duplication_degree,
        allocations=allocations,
        replication=replication,
    )

    if max_pes is not None and allocation.total_pes > max_pes:
        raise CapacityError(
            f"model {coreops.name!r} needs {allocation.total_pes} PEs at "
            f"duplication degree {allocation.duplication_degree} but the "
            f"chip provides {max_pes}; lower the duplication degree or "
            f"compile with num_chips='auto' to shard across chips",
            details={
                "model": coreops.name,
                "required_pes": allocation.total_pes,
                "available_pes": max_pes,
                "duplication_degree": allocation.duplication_degree,
            },
        )

    netlist = build_datapath(coreops, allocation, config)
    control = plan_control(allocation, netlist, config)
    attach_control(netlist, config, control.clbs_needed)
    result = MappingResult(
        coreops=coreops,
        allocation=allocation,
        netlist=netlist,
        control=control,
        schedule=None,
    )
    if replayed:
        from ..analysis.verify import verify_mapping

        verify_mapping(result, stage="mapping-dedup")
    return result
