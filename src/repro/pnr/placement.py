"""Simulated-annealing placement.

The placer assigns every block of the function-block netlist to a fabric
site, minimising the total half-perimeter wirelength (HPWL) of the nets —
the same objective and algorithm family as the VPR/mrVPR tool the paper
uses.  I/O blocks are constrained to the peripheral I/O sites.

:class:`ParallelAnnealingPlacer` is the one annealer: block coordinates
live in numpy arrays, net membership in padded index arrays, and every
temperature round evaluates whole batches of mutually independent moves
with vectorized delta-cost kernels instead of recomputing the objective.
:class:`PlacementCostModel` is not on that path: it is the independent
one-move-at-a-time HPWL model the tests replay the annealer's moves
through.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import CapacityError, InvalidRequestError, PnRError
from ..mapper.netlist import BlockType, FunctionBlockNetlist, Net
from .fabric import FabricGrid
from .options import PnROptions

__all__ = [
    "Placement",
    "PlacementCostModel",
    "RegionGrid",
    "PlacementStats",
    "ParallelAnnealingPlacer",
]

#: nets with at least this many member blocks track their bounding box
#: incrementally (boundary values + counts) instead of rescanning members.
_BBOX_TRACK_THRESHOLD = 12

#: proposed moves per movable block per temperature.
_MOVES_PER_BLOCK = 10


def _axis_move(old: int, new: int, mn: int, cmn: int, mx: int, cmx: int):
    """Update one bounding-box axis (min, count, max, count) for a member
    moving ``old -> new``; returns ``None`` when a boundary vanished and a
    rescan is required."""
    if new == old:
        return mn, cmn, mx, cmx
    if old == mn:
        cmn -= 1
    if old == mx:
        cmx -= 1
    if new < mn:
        mn, cmn = new, 1
    elif new == mn:
        cmn += 1
    if new > mx:
        mx, cmx = new, 1
    elif new == mx:
        cmx += 1
    if cmn == 0 or cmx == 0:
        return None
    return mn, cmn, mx, cmx


@dataclass
class Placement:
    """A block -> site assignment."""

    fabric: FabricGrid
    positions: dict[str, tuple[int, int]] = field(default_factory=dict)

    def position(self, block: str) -> tuple[int, int]:
        try:
            return self.positions[block]
        except KeyError:
            raise KeyError(f"block {block!r} has not been placed") from None  # repro-lint: disable=ERR001

    def net_hpwl(self, net: Net) -> int:
        """Half-perimeter wirelength of one net."""
        xs, ys = [], []
        for block in (net.driver, *net.sinks):
            x, y = self.position(block)
            xs.append(x)
            ys.append(y)
        return (max(xs) - min(xs)) + (max(ys) - min(ys))

    def total_wirelength(self, nets: list[Net]) -> int:
        return sum(self.net_hpwl(net) for net in nets)


class PlacementCostModel:
    """HPWL objective with vectorized full sweeps and incremental moves.

    The reference implementation of the objective, kept on purpose with
    no production caller: the tests replay the batched annealer's merged
    move sequence through it one move at a time and check its deltas
    against its own full recompute.

    Block coordinates live in flat arrays indexed by a dense block id and
    each net's member blocks are a precomputed id list.  :meth:`full_cost`
    evaluates every net in one numpy ``reduceat`` sweep (used for the
    initial cost and as the ground truth the delta path is tested against);
    :meth:`propose` stages a move (single relocation or swap) and returns
    the exact cost delta from re-evaluating only the nets incident to the
    moved blocks, to be finalised with :meth:`commit` or undone with
    :meth:`reject`.  The delta path is deliberately numpy-free: the nets
    touching one block are few and small, where flat-list indexing beats
    tiny-array dispatch overhead by an order of magnitude.
    """

    def __init__(self, netlist: FunctionBlockNetlist, positions: dict[str, tuple[int, int]]):
        names = list(netlist.blocks)
        self.block_index = {name: i for i, name in enumerate(names)}
        self.block_names = names

        members: list[list[int]] = []
        for net in netlist.nets:
            # dict.fromkeys dedups while keeping a deterministic order
            unique = dict.fromkeys((net.driver, *net.sinks))
            members.append([self.block_index[b] for b in unique])
        self.members_by_net = members
        if members:
            lengths = np.array([len(m) for m in members], dtype=np.intp)
            self._flat_members = np.concatenate(
                [np.asarray(m, dtype=np.intp) for m in members]
            )
            self._flat_ptr = np.concatenate(([0], np.cumsum(lengths[:-1]))).astype(np.intp)
        else:
            self._flat_members = np.zeros(0, dtype=np.intp)
            self._flat_ptr = np.zeros(0, dtype=np.intp)

        nets_of: list[list[int]] = [[] for _ in names]
        for index, member_ids in enumerate(members):
            for b in member_ids:
                nets_of[b].append(index)
        self.nets_of = nets_of

        self.xs = [0] * len(names)
        self.ys = [0] * len(names)
        for name, (px, py) in positions.items():
            b = self.block_index[name]
            self.xs[b] = px
            self.ys[b] = py

        # high-fanout nets keep their bounding box (boundary values plus the
        # number of members sitting on each boundary) up to date across
        # moves, so evaluating them is O(1) instead of O(fanout)
        self._bbox: dict[int, list[int]] = {
            i: self._scan_state(i)
            for i, m in enumerate(members)
            if len(m) >= _BBOX_TRACK_THRESHOLD
        }

        self.net_costs = self._sweep().tolist()
        self.total = sum(self.net_costs)
        self._pending: tuple | None = None

    # ------------------------------------------------------------- evaluation
    def _sweep(self) -> np.ndarray:
        """Per-net HPWL of every net, one vectorized reduceat sweep."""
        if self._flat_members.size == 0:
            return np.zeros(0, dtype=np.int64)
        gx = np.asarray(self.xs, dtype=np.int64)[self._flat_members]
        gy = np.asarray(self.ys, dtype=np.int64)[self._flat_members]
        return (
            np.maximum.reduceat(gx, self._flat_ptr)
            - np.minimum.reduceat(gx, self._flat_ptr)
            + np.maximum.reduceat(gy, self._flat_ptr)
            - np.minimum.reduceat(gy, self._flat_ptr)
        )

    def full_cost(self) -> int:
        """Total HPWL recomputed from scratch (ground truth for deltas)."""
        return int(self._sweep().sum())

    def _scan_state(self, net: int) -> list[int]:
        """Bounding box of one net by scanning its members: the boundary
        values and the number of members sitting on each boundary."""
        xs, ys = self.xs, self.ys
        mem = self.members_by_net[net]
        member_xs = [xs[m] for m in mem]
        member_ys = [ys[m] for m in mem]
        min_x, max_x = min(member_xs), max(member_xs)
        min_y, max_y = min(member_ys), max(member_ys)
        return [
            min_x, member_xs.count(min_x), max_x, member_xs.count(max_x),
            min_y, member_ys.count(min_y), max_y, member_ys.count(max_y),
        ]

    def _eval_net_move(
        self,
        net: int,
        moves: list[tuple[tuple[int, int], tuple[int, int]]],
    ) -> tuple[int, list[int] | None]:
        """Cost of ``net`` after its listed members moved ``old -> new``
        (coordinates already updated); returns the cost and, for
        bbox-tracked nets, the updated bounding-box state to install on
        commit."""
        state = self._bbox.get(net)
        if state is None:
            xs, ys = self.xs, self.ys
            mem = self.members_by_net[net]
            first = mem[0]
            min_x = max_x = xs[first]
            min_y = max_y = ys[first]
            for m in mem[1:]:
                px = xs[m]
                if px < min_x:
                    min_x = px
                elif px > max_x:
                    max_x = px
                py = ys[m]
                if py < min_y:
                    min_y = py
                elif py > max_y:
                    max_y = py
            return max_x - min_x + max_y - min_y, None
        new_state: list[int] | None = state
        for old, new in moves:
            new_x = _axis_move(
                old[0], new[0], new_state[0], new_state[1], new_state[2], new_state[3]
            )
            new_y = _axis_move(
                old[1], new[1], new_state[4], new_state[5], new_state[6], new_state[7]
            )
            if new_x is None or new_y is None:
                new_state = None
                break
            new_state = [*new_x, *new_y]
        if new_state is None:
            new_state = self._scan_state(net)
        return (
            new_state[2] - new_state[0] + new_state[6] - new_state[4],
            new_state,
        )

    # ------------------------------------------------------------------ moves
    def propose(
        self,
        block: str,
        new_pos: tuple[int, int],
        swap_block: str | None = None,
    ) -> int:
        """Stage a move and return its cost delta.

        ``block`` moves to ``new_pos``; when ``swap_block`` is given, it
        takes ``block``'s old site.  The move stays staged until
        :meth:`commit` or :meth:`reject`.
        """
        if self._pending is not None:
            raise PnRError("a staged move is already pending")
        xs, ys = self.xs, self.ys
        nets_of = self.nets_of
        b = self.block_index[block]
        old_b = (xs[b], ys[b])
        s = None if swap_block is None else self.block_index[swap_block]
        old_s = None if s is None else (xs[s], ys[s])

        xs[b], ys[b] = new_pos
        if s is not None:
            xs[s], ys[s] = old_b

        net_costs = self.net_costs
        new_costs: list[tuple[int, int, list[int] | None]] = []
        delta = 0
        if s is None:
            for i in nets_of[b]:
                cost, state = self._eval_net_move(i, [(old_b, new_pos)])
                new_costs.append((i, cost, state))
                delta += cost - net_costs[i]
        else:
            # in the annealer's swap the two blocks exchange sites
            # (old_s == new_pos): a net containing both sees the same
            # coordinate multiset before and after, so its cost cannot change
            exchange = old_s == new_pos
            nets_b = nets_of[b]
            nets_s = nets_of[s]
            shared = set(nets_b).intersection(nets_s)
            for i in nets_b:
                if i in shared:
                    continue
                cost, state = self._eval_net_move(i, [(old_b, new_pos)])
                new_costs.append((i, cost, state))
                delta += cost - net_costs[i]
            for i in nets_s:
                if i in shared:
                    continue
                cost, state = self._eval_net_move(i, [(old_s, old_b)])
                new_costs.append((i, cost, state))
                delta += cost - net_costs[i]
            if not exchange:
                # sorted: float accumulation into delta and the order of
                # new_costs must not depend on set iteration order
                for i in sorted(shared):
                    cost, state = self._eval_net_move(
                        i, [(old_b, new_pos), (old_s, old_b)]
                    )
                    new_costs.append((i, cost, state))
                    delta += cost - net_costs[i]
        self._pending = (b, s, old_b, old_s, new_costs, delta)
        return delta

    def commit(self) -> None:
        """Finalise the staged move."""
        if self._pending is None:
            raise PnRError("no staged move to commit")
        _, _, _, _, new_costs, delta = self._pending
        net_costs = self.net_costs
        bbox = self._bbox
        for i, cost, state in new_costs:
            net_costs[i] = cost
            if state is not None:
                bbox[i] = state
        self.total += delta
        self._pending = None

    def reject(self) -> None:
        """Undo the staged move."""
        if self._pending is None:
            raise PnRError("no staged move to reject")
        b, s, old_b, old_s, _, _ = self._pending
        self.xs[b], self.ys[b] = old_b
        if s is not None:
            self.xs[s], self.ys[s] = old_s
        self._pending = None

    def positions(self) -> dict[str, tuple[int, int]]:
        """Export the coordinates as a block -> site mapping."""
        return {
            name: (self.xs[i], self.ys[i])
            for i, name in enumerate(self.block_names)
        }


# --------------------------------------------------------------------------
# region-parallel batched annealing
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class RegionGrid:
    """Disjoint rectangular regions tiling the fabric's core sites.

    The grid shape is a pure function of the fabric geometry, and so is
    the region id of a move — the major key of the deterministic merge
    order.
    """

    width: int
    height: int
    nx: int
    ny: int

    @classmethod
    def for_fabric(
        cls, width: int, height: int, target_span: int = 4
    ) -> "RegionGrid":
        """Tile a ``width x height`` fabric into roughly
        ``target_span``-wide regions."""
        if width <= 0 or height <= 0:
            raise InvalidRequestError("fabric dimensions must be positive")
        nx = max(1, math.ceil(width / target_span))
        ny = max(1, math.ceil(height / target_span))
        return cls(width, height, nx, ny)

    @property
    def n_regions(self) -> int:
        return self.nx * self.ny

    def region_of(self, x: int, y: int) -> int:
        """Region id of core site ``(x, y)``."""
        if not (0 <= x < self.width and 0 <= y < self.height):
            raise InvalidRequestError(f"({x}, {y}) is outside the fabric")
        return (x * self.nx // self.width) * self.ny + (y * self.ny // self.height)

    def sites_by_region(self) -> list[list[tuple[int, int]]]:
        """Core sites grouped by region (for the coverage invariant)."""
        groups: list[list[tuple[int, int]]] = [[] for _ in range(self.n_regions)]
        for x in range(self.width):
            for y in range(self.height):
                groups[self.region_of(x, y)].append((x, y))
        return groups


@dataclass
class PlacementStats:
    """Observability of one annealing run."""

    #: per-temperature (temperature, moves proposed, moves accepted)
    temperatures: list[tuple[float, int, int]] = field(default_factory=list)
    moves_proposed: int = 0
    moves_accepted: int = 0
    final_cost: int = 0
    #: seconds spent inside the batched delta-cost evaluation
    place_delta_seconds: float = 0.0

    @property
    def rounds(self) -> int:
        return len(self.temperatures)


class _NetGeometry:
    """Padded member / incidence index arrays for one netlist.

    The geometry specialization of the placer: member block ids per net
    and incident net ids per block are flattened once into rectangular
    padded arrays (padding ``-1``), so a whole batch of delta costs is a
    handful of gathers and masked reductions instead of per-move Python
    loops.  Immutable.
    """

    def __init__(self, netlist: FunctionBlockNetlist):
        names = list(netlist.blocks)
        self.block_names = names
        self.block_index = {name: i for i, name in enumerate(names)}
        n_blocks = len(names)

        members: list[list[int]] = []
        for net in netlist.nets:
            unique = dict.fromkeys((net.driver, *net.sinks))
            members.append([self.block_index[b] for b in unique])
        self.n_nets = len(members)

        fanout = max((len(m) for m in members), default=1)
        self.members_pad = np.full((self.n_nets, fanout), -1, dtype=np.int64)
        for i, mem in enumerate(members):
            self.members_pad[i, : len(mem)] = mem
        # the padding mask and the clipped gather indices never change:
        # precomputing them keeps the per-batch sweep to pure gathers
        self.members_mask = self.members_pad >= 0
        self.members_clipped = np.maximum(self.members_pad, 0)

        nets_of: list[list[int]] = [[] for _ in range(n_blocks)]
        for index, mem in enumerate(members):
            for b in mem:
                nets_of[b].append(index)
        degree = max((len(n) for n in nets_of), default=1)
        self.nets_of_pad = np.full((n_blocks, degree), -1, dtype=np.int64)
        for i, incident in enumerate(nets_of):
            self.nets_of_pad[i, : len(incident)] = incident

        self.movable = np.array(
            [
                self.block_index[b.name]
                for b in netlist.blocks.values()
                if b.type != BlockType.IO and nets_of[self.block_index[b.name]]
            ],
            dtype=np.int64,
        )
        self.core_blocks = [
            b.name for b in netlist.blocks.values() if b.type != BlockType.IO
        ]
        self.io_blocks = [
            b.name for b in netlist.blocks.values() if b.type == BlockType.IO
        ]

    def net_costs(self, coords: np.ndarray) -> np.ndarray:
        """Per-net HPWL from scratch, one vectorized sweep.

        ``coords`` is the annealing state's ``(2, blocks)`` coordinate
        array.
        """
        if self.n_nets == 0:
            return np.zeros(0, dtype=np.int64)
        mask = self.members_mask
        memc = self.members_clipped
        big = np.int64(1) << 30
        # one fused (2, nets, fanout) pass over both coordinates: the
        # x and y spans fall out of a single gather + masked min/max
        g = coords[:, memc]
        lo = np.where(mask, g, big).min(axis=2)
        hi = np.where(mask, g, -big).max(axis=2)
        return (hi[0] - lo[0]) + (hi[1] - lo[1])

    def net_costs_for(self, nets: np.ndarray, coords: np.ndarray) -> np.ndarray:
        """Exact HPWL of just ``nets`` — the same masked min/max as
        :meth:`net_costs`, restricted to the touched rows."""
        mask = self.members_mask[nets]
        memc = self.members_clipped[nets]
        big = np.int64(1) << 30
        g = coords[:, memc]
        lo = np.where(mask, g, big).min(axis=2)
        hi = np.where(mask, g, -big).max(axis=2)
        return (hi[0] - lo[0]) + (hi[1] - lo[1])


class _AnnealState:
    """Mutable annealing state: coordinates, occupancy, per-net costs."""

    __slots__ = (
        "rng", "coords", "xs", "ys", "occ", "net_costs", "total",
        "io_positions", "scratch",
    )

    def __init__(
        self,
        geometry: _NetGeometry,
        fabric: FabricGrid,
        rng: np.random.Generator,
    ):
        self.rng = rng
        n_blocks = len(geometry.block_names)
        #: one (2, blocks) coordinate array; ``xs``/``ys`` are row views
        #: of it, so the cost kernels can gather both axes in one pass
        self.coords = np.zeros((2, n_blocks), dtype=np.int64)
        self.xs = self.coords[0]
        self.ys = self.coords[1]
        self.occ = np.full(fabric.width * fabric.height, -1, dtype=np.int64)

        sites = [s.position for s in fabric.sites()]
        if len(geometry.core_blocks) > len(sites):
            raise CapacityError(
                f"netlist has {len(geometry.core_blocks)} blocks but the fabric "
                f"only has {len(sites)} sites",
                details={"blocks": len(geometry.core_blocks), "sites": len(sites)},
            )
        order = rng.permutation(len(sites))
        height = fabric.height
        for i, name in enumerate(geometry.core_blocks):
            x, y = sites[order[i]]
            b = geometry.block_index[name]
            self.xs[b] = x
            self.ys[b] = y
            self.occ[x * height + y] = b

        io_sites = [s.position for s in fabric.io_sites()]
        if len(geometry.io_blocks) > len(io_sites):
            raise CapacityError(
                "not enough I/O sites for the netlist's I/O blocks",
                details={
                    "io_blocks": len(geometry.io_blocks),
                    "io_sites": len(io_sites),
                },
            )
        io_order = rng.permutation(len(io_sites))
        self.io_positions = {}
        for i, name in enumerate(geometry.io_blocks):
            x, y = io_sites[io_order[i]]
            b = geometry.block_index[name]
            self.xs[b] = x
            self.ys[b] = y
            self.io_positions[name] = (x, y)

        self.net_costs = geometry.net_costs(self.coords)
        self.total = int(self.net_costs.sum())
        #: per-batch arbitration scratch (block winners, site winners,
        #: move id ramp), allocated lazily on first use
        self.scratch = None


class ParallelAnnealingPlacer:
    """Region-parallel batched simulated annealing.

    Each temperature round proposes a whole batch of range-limited moves
    at once against the frozen pre-batch state, resolves conflicts by
    awarding every contested resource (block, site, net) to the move
    with the smallest ``(region id, move id)`` key, evaluates the
    surviving — mutually independent — moves with vectorized padded-array
    delta kernels, applies the Metropolis-accepted ones, and cools on
    VPR's adaptive schedule.  Because survivors share no nets, blocks or
    sites, applying them in any order gives the same state; the merge
    order ``(region id, move id)`` makes the accepted-move *sequence*
    reproducible too, and a serial replay of that sequence through
    :class:`PlacementCostModel` reaches the identical placement.

    Everything runs on the calling thread and every random draw comes
    from one generator seeded by ``seed``; ``options`` is accepted and
    not read (see :class:`~repro.pnr.options.PnROptions`).
    """

    #: exit temperature factor (VPR): stop when T < this * cost / nets.
    #: Higher than the classic 0.005 on purpose: the cold tail only
    #: shuffles near-zero-delta moves, and the exact greedy descent of
    #: :meth:`_refine` recovers those improvements at a fraction of the
    #: cost of annealing through them.
    _EXIT_FACTOR = 0.02
    _MAX_ROUNDS = 2000
    #: consecutive all-zero-delta rounds that count as frozen
    _FROZEN_ROUNDS = 5

    def __init__(self, options: PnROptions | None = None, seed: int = 0):
        self.options = options if options is not None else PnROptions()
        self.seed = seed
        self.initial_acceptance = 0.5
        self.last_stats: PlacementStats | None = None

    # ---------------------------------------------------------------- one batch
    def _batch(
        self,
        geometry: _NetGeometry,
        state: _AnnealState,
        fabric: FabricGrid,
        region_of_site: np.ndarray,
        temperature: float,
        rlim: int,
        batch: int,
        collect_moves: bool = False,
    ) -> tuple[int, int, int, float, list[tuple[int, int, int, int]]]:
        """One batch: propose, arbitrate, evaluate survivors, apply.

        Returns ``(evaluated, accepted, accepted_nonzero, delta_seconds,
        moves)``: how many independent survivors were evaluated, how many
        were accepted, how many accepted moves changed the cost, the
        seconds spent in the delta kernel, and — only when
        ``collect_moves`` — the applied moves in merge order as
        ``(block, tx, ty, swap)`` id tuples (``swap == -1`` for a
        relocation to a free site).
        """
        width, height = fabric.width, fabric.height
        rng = state.rng
        xs, ys, occ = state.xs, state.ys, state.occ
        movable = geometry.movable
        nets_of = geometry.nets_of_pad
        n_blocks = len(geometry.block_names)

        # every batch draws exactly three fixed-size streams (the dx/dy
        # displacements share one draw: bounded-integer sampling consumes
        # the bit stream element-wise, so one 2*batch draw yields the
        # same values as two batch draws), and the rng state after a
        # round is a function of seed and geometry alone
        bi = rng.integers(0, movable.size, size=batch)
        d = rng.integers(-rlim, rlim + 1, size=2 * batch)
        dx, dy = d[:batch], d[batch:]
        uniforms = rng.random(batch)

        b = movable[bi]
        sx, sy = xs[b], ys[b]
        tx = sx + dx
        np.maximum(tx, 0, out=tx)
        np.minimum(tx, width - 1, out=tx)
        ty = sy + dy
        np.maximum(ty, 0, out=ty)
        np.minimum(ty, height - 1, out=ty)
        ssite = sx * height + sy
        tsite = tx * height + ty
        valid = tsite != ssite
        swap = occ[tsite]
        region = region_of_site[ssite]
        scratch = state.scratch
        if scratch is None or scratch[2].size != batch:
            scratch = state.scratch = (
                np.empty(n_blocks, dtype=np.int64),
                np.empty(occ.size, dtype=np.int64),
                np.arange(batch, dtype=np.int64),
            )
        key = region * np.int64(batch) + scratch[2]

        # ------------------------------------------------- conflict arbitration
        # every move claims its blocks and sites; the smallest
        # (region id, move id) key wins each resource and a move survives
        # only if it wins all of its claims.  Survivors therefore touch
        # disjoint blocks and sites — applying them in any order reaches
        # the same placement — while nets may be shared: their deltas are
        # evaluated against the frozen pre-batch state (synchronous
        # parallel annealing) and the exact per-net costs are restored by
        # a full vectorized sweep after the batch is applied.
        inf = np.int64(1) << 62
        block_win, site_win = scratch[0], scratch[1]
        kv = key[valid]
        block_win.fill(inf)
        np.minimum.at(block_win, b[valid], kv)
        has_swap = valid & (swap >= 0)
        np.minimum.at(block_win, swap[has_swap], key[has_swap])

        site_win.fill(inf)
        np.minimum.at(site_win, ssite[valid], kv)
        np.minimum.at(site_win, tsite[valid], kv)

        win = valid.copy()
        win &= block_win[b] == key
        win &= np.where(swap >= 0, block_win[np.maximum(swap, 0)] == key, True)
        win &= (site_win[ssite] == key) & (site_win[tsite] == key)

        survivors = np.flatnonzero(win)
        if survivors.size == 0:
            return 0, 0, 0, 0.0, []

        # ------------------------------------------------------ delta evaluation
        sb = b[survivors]
        ss = swap[survivors]
        stx, sty = tx[survivors], ty[survivors]
        sox, soy = sx[survivors], sy[survivors]

        nb = nets_of[sb]
        ns = np.where(ss[:, None] >= 0, nets_of[np.maximum(ss, 0)], -1)
        # a net containing both ends of an exchange swap keeps the same
        # coordinate multiset: drop it from the swap side (delta 0)
        shared = (ns[:, :, None] == nb[:, None, :]).any(axis=2)
        pair_rows_b, pair_cols_b = np.nonzero(nb >= 0)
        pair_rows_s, pair_cols_s = np.nonzero((ns >= 0) & ~shared)
        pair_mv = np.concatenate([pair_rows_b, pair_rows_s])
        pair_net = np.concatenate(
            [nb[pair_rows_b, pair_cols_b], ns[pair_rows_s, pair_cols_s]]
        )

        t_delta = time.perf_counter()
        new_cost = self._eval_pairs(
            geometry, state, pair_mv, pair_net, sb, ss, stx, sty, sox, soy
        )
        pair_delta = new_cost - state.net_costs[pair_net]
        delta = np.bincount(
            pair_mv, weights=pair_delta, minlength=survivors.size
        ).astype(np.int64)
        delta_seconds = time.perf_counter() - t_delta

        # ------------------------------------------------------------ metropolis
        accept = uniforms[survivors] < np.exp(
            np.minimum(-delta / temperature, 0.0)
        )
        n_accepted = int(accept.sum())
        moves: list[tuple[int, int, int, int]] = []
        if n_accepted == 0:
            return int(survivors.size), 0, 0, delta_seconds, moves

        # ------------------------------------------- apply, in (region, id) order
        acc = np.flatnonzero(accept)
        acc = acc[np.argsort(key[survivors][acc], kind="stable")]
        ab, as_ = sb[acc], ss[acc]
        atx, aty = stx[acc], sty[acc]
        aox, aoy = sox[acc], soy[acc]
        xs[ab] = atx
        ys[ab] = aty
        swapped = as_ >= 0
        xs[as_[swapped]] = aox[swapped]
        ys[as_[swapped]] = aoy[swapped]
        occ[atx * height + aty] = ab
        occ[aox * height + aoy] = np.where(swapped, as_, -1)

        # exact per-net costs: when no net appears under two accepted
        # moves the staged per-pair costs already are the from-scratch
        # values (exchange-swap shared nets keep their coordinate
        # multiset), so the batch commits incrementally; genuinely
        # shared nets are recomputed exactly, but only those rows
        acc_pairs = accept[pair_mv]
        acc_nets = pair_net[acc_pairs]
        uniq = np.unique(acc_nets)
        if acc_nets.size == uniq.size:
            state.net_costs[acc_nets] = new_cost[acc_pairs]
            state.total += int(delta[acc].sum())
        else:
            sub = geometry.net_costs_for(uniq, state.coords)
            state.total += int(sub.sum() - state.net_costs[uniq].sum())
            state.net_costs[uniq] = sub

        if collect_moves:
            moves = [
                (int(ab[i]), int(atx[i]), int(aty[i]), int(as_[i]))
                for i in range(acc.size)
            ]
        n_nonzero = int((delta[acc] != 0).sum())
        return int(survivors.size), n_accepted, n_nonzero, delta_seconds, moves

    @staticmethod
    def _eval_pairs(
        geometry: _NetGeometry,
        state: _AnnealState,
        pair_mv: np.ndarray,
        pair_net: np.ndarray,
        sb: np.ndarray,
        ss: np.ndarray,
        stx: np.ndarray,
        sty: np.ndarray,
        sox: np.ndarray,
        soy: np.ndarray,
    ) -> np.ndarray:
        """HPWL of each pair's net with the pair's move applied."""
        mem = geometry.members_pad[pair_net]
        mask = geometry.members_mask[pair_net]
        memc = geometry.members_clipped[pair_net]
        pxy = state.coords[:, memc]
        sbm = sb[pair_mv][:, None]
        ssm = ss[pair_mv][:, None]
        is_b = mem == sbm
        is_s = (ssm >= 0) & (mem == ssm)
        # both coordinates move through one fused (2, pairs, fanout)
        # where/min/max pass; the boolean masks broadcast across axis 0
        txy = np.empty((2, pair_mv.size, 1), dtype=np.int64)
        txy[0, :, 0] = stx[pair_mv]
        txy[1, :, 0] = sty[pair_mv]
        oxy = np.empty((2, pair_mv.size, 1), dtype=np.int64)
        oxy[0, :, 0] = sox[pair_mv]
        oxy[1, :, 0] = soy[pair_mv]
        nxy = np.where(is_b, txy, np.where(is_s, oxy, pxy))
        big = np.int64(1) << 30
        lo = np.where(mask, nxy, big).min(axis=2)
        hi = np.where(mask, nxy, -big).max(axis=2)
        return (hi[0] - lo[0]) + (hi[1] - lo[1])

    # ---------------------------------------------------------------- schedule
    @staticmethod
    def _cool(temperature: float, alpha: float, mid: float = 0.95) -> float:
        """VPR's adaptive cooling: fast through the trivial-acceptance and
        frozen phases, slow through the productive middle.

        ``mid`` is the mid-phase factor: small netlists cool slower there
        because each of their batches yields only a handful of
        conflict-free moves, so they need more rounds to spend the same
        effective move budget per temperature.
        """
        if alpha > 0.96:
            return temperature * 0.5
        if alpha > 0.8:
            return temperature * 0.9
        if alpha > 0.15:
            return temperature * mid
        return temperature * 0.8

    def place(
        self, netlist: FunctionBlockNetlist, fabric: FabricGrid | None = None
    ) -> Placement:
        """Place the netlist; returns the final placement.

        Populates :attr:`last_stats` with the run's observability data.
        """
        fabric = fabric if fabric is not None else FabricGrid.for_netlist(netlist)
        geometry = _NetGeometry(netlist)
        stats = PlacementStats()
        self.last_stats = stats

        rng = np.random.default_rng(np.random.SeedSequence(self.seed).spawn(1)[0])
        state = _AnnealState(geometry, fabric, rng)

        placement = Placement(fabric)
        if geometry.n_nets == 0 or geometry.movable.size == 0:
            self._export(geometry, state, placement)
            stats.final_cost = state.total
            return placement

        region = RegionGrid.for_fabric(fabric.width, fabric.height)
        region_of_site = np.array(
            [
                region.region_of(site // fabric.height, site % fabric.height)
                for site in range(fabric.width * fabric.height)
            ],
            dtype=np.int64,
        )
        # one temperature round spends the classic budget of
        # _MOVES_PER_BLOCK * movable proposals, split into several batches
        # so later batches within a round see the earlier batches' moves.
        # Small netlists cool slower through the mid phase: each of their
        # batches yields only a handful of conflict-free moves, so they
        # need more rounds per temperature.
        batches_per_round = 4
        mid_cooling = 0.96 if geometry.movable.size < 64 else 0.95
        batch = max(
            16,
            -(-_MOVES_PER_BLOCK * int(geometry.movable.size) // batches_per_round),
        )
        max_dim = max(fabric.width, fabric.height)

        base = max(1.0, state.total / max(geometry.n_nets, 1))
        temperature = base / max(self.initial_acceptance, 1e-6)
        rlim = float(max_dim)
        zero_rounds = 0

        for _ in range(self._MAX_ROUNDS):
            evaluated = accepted = nonzero = 0
            for _ in range(batches_per_round):
                ev, acc, nz, dt, _ = self._batch(
                    geometry, state, fabric, region_of_site,
                    temperature, max(1, int(round(rlim))), batch,
                )
                evaluated += ev
                accepted += acc
                nonzero += nz
                stats.place_delta_seconds += dt

            proposed = batch * batches_per_round
            stats.temperatures.append((temperature, proposed, accepted))
            stats.moves_proposed += proposed
            stats.moves_accepted += accepted

            # acceptance over the *evaluated* independent survivors:
            # conflict-losers never reached the Metropolis test and
            # must not read as rejections to the schedule
            alpha = accepted / max(evaluated, 1)
            temperature = self._cool(temperature, alpha, mid_cooling)
            rlim = min(float(max_dim), max(1.0, rlim * (0.56 + alpha)))

            # a round whose accepted moves were all zero-delta shuffles
            # cannot have improved the cost: after a few of those in a
            # row the anneal is frozen, whatever the temperature says
            zero_rounds = zero_rounds + 1 if nonzero == 0 else 0
            if (
                state.total == 0
                or zero_rounds >= self._FROZEN_ROUNDS
                or temperature
                < self._EXIT_FACTOR * max(state.total, 1) / max(geometry.n_nets, 1)
            ):
                break

        self._refine(geometry, state, fabric, stats)

        stats.final_cost = state.total
        self._export(geometry, state, placement)
        return placement

    # ------------------------------------------------------------- refinement
    def _refine(
        self,
        geometry: _NetGeometry,
        state: _AnnealState,
        fabric: FabricGrid,
        stats: PlacementStats,
        radius: int = 2,
        max_passes: int = 8,
    ) -> None:
        """Exhaustive window-limited greedy descent on the final state.

        Serial and rng-free: blocks are visited in index order and each
        takes its best strictly-improving move (ties broken by lowest
        site id) within a ``radius`` window, so the polish is
        deterministic.  Deltas are exact — the state is committed between
        moves — which lets the quench escape the plateau the batched
        anneal's frozen phase leaves behind.
        """
        width, height = fabric.width, fabric.height
        xs, ys, occ = state.xs, state.ys, state.occ
        nets_of = geometry.nets_of_pad
        members = geometry.members_pad
        t_start = time.perf_counter()
        offs = np.array(
            [
                (ox, oy)
                for ox in range(-radius, radius + 1)
                for oy in range(-radius, radius + 1)
                if (ox, oy) != (0, 0)
            ],
            dtype=np.int64,
        )
        # dirty list: a block is revisited only while its neighbourhood
        # keeps changing, so converged passes cost almost nothing
        dirty = np.ones(len(geometry.block_names), dtype=bool)
        for _ in range(max_passes):
            improved = False
            for block in geometry.movable:
                b = int(block)
                if not dirty[b]:
                    continue
                dirty[b] = False
                bx, by = int(xs[b]), int(ys[b])
                cand_x = np.clip(bx + offs[:, 0], 0, width - 1)
                cand_y = np.clip(by + offs[:, 1], 0, height - 1)
                site = bx * height + by
                tsite = np.unique(cand_x * height + cand_y)
                tsite = tsite[tsite != site]
                if tsite.size == 0:
                    continue
                n_cand = tsite.size
                stx, sty = tsite // height, tsite % height
                ss = occ[tsite]
                sb = np.full(n_cand, b, dtype=np.int64)
                sox = np.full(n_cand, bx, dtype=np.int64)
                soy = np.full(n_cand, by, dtype=np.int64)
                nb = nets_of[sb]
                ns = np.where(ss[:, None] >= 0, nets_of[np.maximum(ss, 0)], -1)
                shared = (ns[:, :, None] == nb[:, None, :]).any(axis=2)
                rows_b, cols_b = np.nonzero(nb >= 0)
                rows_s, cols_s = np.nonzero((ns >= 0) & ~shared)
                pair_mv = np.concatenate([rows_b, rows_s])
                pair_net = np.concatenate(
                    [nb[rows_b, cols_b], ns[rows_s, cols_s]]
                )
                stats.moves_proposed += n_cand
                if pair_net.size == 0:
                    continue
                new_cost = self._eval_pairs(
                    geometry, state, pair_mv, pair_net, sb, ss, stx, sty, sox, soy
                )
                delta = np.bincount(
                    pair_mv,
                    weights=new_cost - state.net_costs[pair_net],
                    minlength=n_cand,
                ).astype(np.int64)
                j = int(np.argmin(delta))
                if delta[j] >= 0:
                    continue
                s = int(ss[j])
                xs[b], ys[b] = int(stx[j]), int(sty[j])
                if s >= 0:
                    xs[s], ys[s] = bx, by
                occ[tsite[j]] = b
                occ[site] = s
                # exact incremental update: a shared net of an exchange
                # swap keeps its coordinate multiset, every other
                # affected net's post-move cost is new_cost
                touched = pair_mv == j
                state.net_costs[pair_net[touched]] = new_cost[touched]
                state.total += int(delta[j])
                stats.moves_accepted += 1
                improved = True
                # every block sharing a net with either end may have a
                # new best move now
                near = members[pair_net[touched]]
                dirty[near[near >= 0]] = True
                dirty[b] = True
                if s >= 0:
                    dirty[s] = True
            if not improved:
                break
        stats.place_delta_seconds += time.perf_counter() - t_start

    @staticmethod
    def _export(
        geometry: _NetGeometry, state: _AnnealState, placement: Placement
    ) -> None:
        for i, name in enumerate(geometry.block_names):
            placement.positions[name] = (int(state.xs[i]), int(state.ys[i]))
