"""PE resource allocation (the spatial half of the spatial-to-temporal mapper).

Every weight group needs at least one PE per crossbar tile to hold its
weights (the *minimum storage requirement*).  Groups whose weights are
reused many times per inference (convolutional layers, synthesized pooling)
become pipeline bottlenecks, so extra PEs are assigned to them as
*duplicates*; a group with duplication ``d`` finishes its ``reuse``
core-ops in ``ceil(reuse / d)`` iterations.

Following Section 5.2, the *duplication degree of the model* is the
duplication assigned to the group with the maximum reuse degree; all other
groups receive just enough duplicates to keep their iteration count at or
below that group's, which balances the pipeline stages.

Tile counts come from the graph's derived view (``coreops.derived()``).
``pes``, ``iterations`` and the model totals are computed at construction,
not pickled.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

from ..arch.params import PEParams, ceil_div
from ..errors import CapacityError, InvalidRequestError, MappingError
from ..synthesizer.coreop import CoreOpGraph, WeightGroup

__all__ = [
    "GroupAllocation",
    "AllocationResult",
    "allocate",
    "allocate_for_pe_budget",
    "allocate_request",
]


class _Derived:
    """A frozen dataclass whose ``_derive`` sets attributes that are not
    fields (``repr`` and ``==`` ignore them) and are derived again on load."""

    def __getstate__(self) -> dict:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._derive()


@dataclass(frozen=True)
class GroupAllocation(_Derived):
    """PE assignment of one weight group: ``pes`` (tiles x duplicates) and
    ``iterations`` (sequential iterations over all reuse positions)."""

    group: str
    tiles: int
    duplication: int
    reuse: int

    def __post_init__(self) -> None:
        if self.tiles <= 0 or self.duplication <= 0 or self.reuse <= 0:
            raise MappingError("tiles, duplication and reuse must be positive")
        if self.duplication > self.reuse:
            raise MappingError(
                f"group {self.group!r}: duplication {self.duplication} exceeds reuse {self.reuse}"
            )
        self._derive()

    def _derive(self) -> None:
        vars(self).update(
            pes=self.tiles * self.duplication,
            iterations=ceil_div(self.reuse, self.duplication),
        )


@dataclass(frozen=True)
class AllocationResult(_Derived):
    """The complete PE allocation of one model.

    ``replication`` counts how many full copies of the mapped model are
    instantiated: once every group has enough duplicates to finish in a
    single iteration, further duplication can only help by processing
    independent samples in parallel, so the surplus duplication degree is
    spent on whole-model replicas (this is what lets small networks such as
    the MLP keep scaling to 64x in Figure 8 / Table 3).
    """

    model: str
    duplication_degree: int
    allocations: dict[str, GroupAllocation]
    replication: int = 1

    def __post_init__(self) -> None:
        if self.replication <= 0:
            raise MappingError("replication must be positive")
        self._derive()

    def _derive(self) -> None:
        allocations = self.allocations.values()
        pes_per_replica = sum(a.pes for a in allocations)
        vars(self).update(
            pes_per_replica=pes_per_replica,
            total_pes=self.replication * pes_per_replica,
            # iterations of the slowest (bottleneck) pipeline stage
            max_iterations=max((a.iterations for a in allocations), default=1),
            # PEs needed for minimum storage (duplication degree 1)
            min_pes=sum(a.tiles for a in allocations),
        )

    def allocation(self, group: str) -> GroupAllocation:
        try:
            return self.allocations[group]
        except KeyError:
            raise KeyError(f"no allocation for group {group!r}") from None  # repro-lint: disable=ERR001

    def iterations(self, group: str) -> int:
        return self.allocation(group).iterations

    def temporal_utilization(self) -> float:
        """Average busy fraction of the allocated PEs.

        In the steady-state pipeline every stage has ``max_iterations``
        cycles available but only keeps its PEs busy for its own iteration
        count; the weighted average of ``iterations_g / max_iterations``
        over PEs is the temporal utilization, whose reciprocal shortfall is
        the temporal utilization bound of Figure 8c.
        """
        horizon = self.max_iterations
        if horizon == 0 or not self.allocations:
            return 0.0
        busy = sum(a.pes * a.iterations for a in self.allocations.values())
        return busy / (self.pes_per_replica * horizon)


def _balanced_duplication(group: WeightGroup, target_iterations: int) -> int:
    """Smallest duplication that keeps the group's iterations <= target."""
    if target_iterations <= 0:
        raise MappingError("target_iterations must be positive")
    duplication = ceil_div(group.reuse, target_iterations)
    return max(1, min(group.reuse, duplication))


def allocate(
    coreops: CoreOpGraph,
    duplication_degree: int = 1,
    pe: PEParams | None = None,
    *,
    target_iterations: int | None = None,
    replication: int | None = None,
) -> AllocationResult:
    """Allocate PEs for a core-op graph at a given model duplication degree.

    The group with the maximum reuse degree receives ``duplication_degree``
    duplicates; every other group receives the minimum duplication that
    keeps its iteration count at or below the resulting bottleneck.

    ``target_iterations`` / ``replication`` override the bottleneck-derived
    values.  The multi-chip backend (:mod:`repro.partition`) uses this to
    allocate each shard against the *whole model's* pipeline pace, so the
    per-group allocations of the shards are exactly the whole-model
    allocation restricted to the shard's groups (a shard must not
    re-balance against its own local bottleneck, which would over-duplicate
    or over-replicate groups relative to the single-chip mapping).
    """
    if duplication_degree <= 0:
        raise InvalidRequestError(
            f"duplication_degree must be positive, got {duplication_degree}",
            details={"duplication_degree": duplication_degree},
        )
    pe = pe if pe is not None else PEParams()

    groups = coreops.groups()
    if not groups:
        raise MappingError(
            f"core-op graph {coreops.name!r} has no groups to allocate",
            details={"model": coreops.name},
        )

    max_reuse = coreops.max_reuse_degree
    if target_iterations is None:
        target_iterations = ceil_div(max_reuse, min(duplication_degree, max_reuse))
    elif target_iterations <= 0:
        raise InvalidRequestError(
            f"target_iterations must be positive, got {target_iterations}",
            details={"target_iterations": target_iterations},
        )
    if replication is None:
        replication = max(1, duplication_degree // max_reuse)
    elif replication <= 0:
        raise InvalidRequestError(
            f"replication must be positive, got {replication}",
            details={"replication": replication},
        )

    tiles = coreops.derived().tiling(pe.rows, pe.logical_cols).tiles
    allocations = {
        group.name: GroupAllocation(
            group=group.name,
            tiles=tiles[group.name],
            duplication=_balanced_duplication(group, target_iterations),
            reuse=group.reuse,
        )
        for group in groups
    }
    return AllocationResult(
        model=coreops.name,
        duplication_degree=duplication_degree,
        allocations=allocations,
        replication=replication,
    )


def allocate_for_pe_budget(
    coreops: CoreOpGraph,
    pe_budget: int,
    pe: PEParams | None = None,
) -> AllocationResult | None:
    """Find the largest duplication degree whose allocation fits ``pe_budget``.

    Returns ``None`` when even the minimum-storage allocation does not fit
    (the model cannot be mapped onto the chip at all).
    """
    if pe_budget <= 0:
        return None
    pe = pe if pe is not None else PEParams()

    base = allocate(coreops, duplication_degree=1, pe=pe)
    if base.total_pes > pe_budget:
        return None

    # duplication beyond the maximum reuse degree is spent on whole-model
    # replicas, so the search space extends past max_reuse up to the point
    # where even fully-duplicated replicas exhaust the budget.
    max_reuse = max(1, coreops.max_reuse_degree)
    high = max_reuse * max(1, pe_budget // base.total_pes + 1)
    low = 1
    best = base
    while low <= high:
        mid = (low + high) // 2
        candidate = allocate(coreops, duplication_degree=mid, pe=pe)
        if candidate.total_pes <= pe_budget:
            best = candidate
            low = mid + 1
        else:
            high = mid - 1
    return best


def allocate_request(
    coreops: CoreOpGraph,
    duplication_degree: int,
    pe: PEParams,
    pe_budget: int | None = None,
    **overrides: int | None,
) -> AllocationResult:
    """The allocation a compile asks for: the largest duplication degree
    that fits ``pe_budget`` (``CapacityError`` when none does), else
    :func:`allocate` at ``duplication_degree`` with the pace overrides.
    Kept in the graph's derived view: the partition and mapping passes of
    a one-chip compile allocate once."""
    overrides = {name: value for name, value in overrides.items() if value is not None}
    key = (duplication_degree, pe, pe_budget, *sorted(overrides.items()))
    memo = coreops.derived().allocations
    if key in memo:
        return memo[key]
    if pe_budget is None:
        allocation = allocate(coreops, duplication_degree, pe, **overrides)
    else:
        allocation = allocate_for_pe_budget(coreops, pe_budget, pe)
        if allocation is None:
            minimum = allocate(coreops, 1, pe).total_pes
            raise CapacityError(
                f"model {coreops.name!r} needs at least {minimum} PEs; budget is {pe_budget}",
                details={"model": coreops.name, "minimum_pes": minimum, "pe_budget": pe_budget},
            )
    return memo.setdefault(key, allocation)
