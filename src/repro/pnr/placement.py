"""Simulated-annealing placement.

The placer assigns every block of the function-block netlist to a fabric
site, minimising the total half-perimeter wirelength (HPWL) of the nets —
the same objective and algorithm family as the VPR/mrVPR tool the paper
uses.  I/O blocks are constrained to the peripheral I/O sites.

:class:`PlacementCostModel` is the objective: flat coordinate lists, an
incrementally tracked bounding box per large net, and the exact integer
cost delta of one staged relocation or swap.
:class:`ParallelAnnealingPlacer` is the one annealer: a serial loop that
stages each proposed move on the model by block id and commits or
rejects it.  The tests drive the same model by block name.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import CapacityError, PnRError
from ..mapper.netlist import BlockType, FunctionBlockNetlist, Net
from .fabric import FabricGrid
from .options import PnROptions

__all__ = [
    "Placement",
    "PlacementCostModel",
    "PlacementStats",
    "ParallelAnnealingPlacer",
    "initial_positions",
]

#: nets with at least this many member blocks track their bounding box
#: incrementally (boundary values + counts) instead of rescanning members.
_BBOX_TRACK_THRESHOLD = 12

#: proposed moves per movable block per temperature: the smallest whole
#: number at which the golden netlists pass at their recorded seed.
_MOVES_PER_BLOCK = 2


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
    """HPWL objective with a vectorized full sweep and incremental moves.

    Block coordinates live in flat lists indexed by a dense block id and
    each net's member blocks are a precomputed id list.  :meth:`full_cost`
    evaluates every net in one numpy ``reduceat`` sweep (used for the
    initial cost and as the ground truth the delta path is tested against);
    :meth:`stage` stages a move (single relocation or swap) and returns
    the exact cost delta from re-evaluating only the nets incident to the
    moved blocks, to be finalised with :meth:`commit` or undone with
    :meth:`reject`; :meth:`propose` is :meth:`stage` by block name.  The
    delta path is deliberately numpy-free: the nets touching one block are
    few and small, where flat-list indexing beats tiny-array dispatch
    overhead by an order of magnitude.
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
        self._net_sets = [frozenset(incident) for incident in nets_of]

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

        #: every other net is rescanned; its members are split here (first,
        #: rest) so the move loop neither indexes nor slices.  ``None``
        #: marks a bbox-tracked net.
        self._rescan = [
            None if i in self._bbox else (m[0], m[1:]) for i, m in enumerate(members)
        ]

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
        moves: list[tuple[int, int, int, int]],
    ) -> list[int]:
        """Bounding-box state of tracked ``net`` after its listed members
        moved ``(old_x, old_y, new_x, new_y)`` (coordinates already
        updated), to install on commit."""
        state = self._bbox[net]
        for old_x, old_y, new_x, new_y in moves:
            x_axis = _axis_move(old_x, new_x, state[0], state[1], state[2], state[3])
            y_axis = _axis_move(old_y, new_y, state[4], state[5], state[6], state[7])
            if x_axis is None or y_axis is None:
                return self._scan_state(net)
            state = [*x_axis, *y_axis]
        return state

    # ------------------------------------------------------------------ moves
    def stage(self, b: int, x: int, y: int, s: int | None = None) -> int:
        """Stage a move by block id and return its cost delta.

        Block ``b`` moves to ``(x, y)``; when ``s`` is given, it takes
        ``b``'s old site.  The move stays staged until :meth:`commit` or
        :meth:`reject`.
        """
        if self._pending is not None:
            raise PnRError("a staged move is already pending")
        xs, ys = self.xs, self.ys
        old_x, old_y = xs[b], ys[b]
        xs[b] = x
        ys[b] = y
        nets_b = nets = self.nets_of[b]
        if s is None:
            swap_x = swap_y = None
            nets_s = ()
        else:
            swap_x, swap_y = xs[s], ys[s]
            xs[s] = old_x
            ys[s] = old_y
            nets_s = self.nets_of[s]
            shared = self._net_sets[b].intersection(nets_s)
            if shared:
                # in the annealer's swap the two blocks exchange sites: a
                # net containing both sees the same coordinate multiset
                # before and after, so its cost and bounding box cannot
                # change.  sorted: the staging order must not depend on
                # set iteration order
                both = [] if (swap_x, swap_y) == (x, y) else sorted(shared)
                nets = [i for i in (*nets_b, *nets_s) if i not in shared] + both
            else:
                nets = nets_b + nets_s

        rescan, net_costs = self._rescan, self.net_costs
        costs: list[int] = []
        states: list[tuple[int, list[int]]] = []
        delta = 0
        for i in nets:
            split = rescan[i]
            if split is None:
                moves = []
                if i in nets_b:
                    moves.append((old_x, old_y, x, y))
                if i in nets_s:
                    moves.append((swap_x, swap_y, old_x, old_y))
                state = self._eval_net_move(i, moves)
                states.append((i, state))
                cost = state[2] - state[0] + state[6] - state[4]
            else:
                first, rest = split
                min_x = max_x = xs[first]
                min_y = max_y = ys[first]
                for m in rest:
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
                cost = max_x - min_x + max_y - min_y
            costs.append(cost)
            delta += cost - net_costs[i]
        self._pending = (
            (b, old_x, old_y, s, swap_x, swap_y),  # what reject restores
            (nets, costs, states, delta),  # what commit installs
        )
        return delta

    def propose(
        self,
        block: str,
        new_pos: tuple[int, int],
        swap_block: str | None = None,
    ) -> int:
        """:meth:`stage` by block name: ``block`` moves to ``new_pos`` and
        ``swap_block``, when given, takes ``block``'s old site."""
        return self.stage(
            self.block_index[block],
            *new_pos,
            None if swap_block is None else self.block_index[swap_block],
        )

    def commit(self) -> None:
        """Finalise the staged move."""
        if self._pending is None:
            raise PnRError("no staged move to commit")
        nets, costs, states, delta = self._pending[1]
        net_costs = self.net_costs
        for i, cost in zip(nets, costs):
            net_costs[i] = cost
        self._bbox.update(states)
        self.total += delta
        self._pending = None

    def reject(self) -> None:
        """Undo the staged move."""
        if self._pending is None:
            raise PnRError("no staged move to reject")
        b, old_x, old_y, s, swap_x, swap_y = self._pending[0]
        self.xs[b] = old_x
        self.ys[b] = old_y
        if s is not None:
            self.xs[s] = swap_x
            self.ys[s] = swap_y
        self._pending = None

    def positions(self) -> dict[str, tuple[int, int]]:
        """Export the coordinates as a block -> site mapping."""
        return {
            name: (self.xs[i], self.ys[i])
            for i, name in enumerate(self.block_names)
        }


# --------------------------------------------------------------------------
# the annealer
# --------------------------------------------------------------------------


@dataclass
class PlacementStats:
    """Observability of one annealing run."""

    #: per-temperature (temperature, moves proposed, moves accepted)
    temperatures: list[tuple[float, int, int]] = field(default_factory=list)
    moves_proposed: int = 0
    #: proposals that reached the cost model (a proposal clipped back onto
    #: its own site is proposed but not evaluated)
    moves_evaluated: int = 0
    moves_accepted: int = 0
    final_cost: int = 0
    #: seconds spent inside the move loop
    place_delta_seconds: float = 0.0

    @property
    def rounds(self) -> int:
        return len(self.temperatures)


def initial_positions(
    netlist: FunctionBlockNetlist, fabric: FabricGrid, rng: np.random.Generator
) -> dict[str, tuple[int, int]]:
    """The random legal placement the anneal starts from: core blocks on a
    permutation of the core sites, I/O blocks on a permutation of the
    peripheral I/O sites."""
    core_blocks = [b.name for b in netlist.blocks.values() if b.type != BlockType.IO]
    io_blocks = [b.name for b in netlist.blocks.values() if b.type == BlockType.IO]

    sites = [s.position for s in fabric.sites()]
    if len(core_blocks) > len(sites):
        raise CapacityError(
            f"netlist has {len(core_blocks)} blocks but the fabric "
            f"only has {len(sites)} sites",
            details={"blocks": len(core_blocks), "sites": len(sites)},
        )
    order = rng.permutation(len(sites))
    positions = {name: sites[order[i]] for i, name in enumerate(core_blocks)}

    io_sites = [s.position for s in fabric.io_sites()]
    if len(io_blocks) > len(io_sites):
        raise CapacityError(
            "not enough I/O sites for the netlist's I/O blocks",
            details={"io_blocks": len(io_blocks), "io_sites": len(io_sites)},
        )
    io_order = rng.permutation(len(io_sites))
    positions.update(
        (name, io_sites[io_order[i]]) for i, name in enumerate(io_blocks)
    )
    return positions


class ParallelAnnealingPlacer:
    """Serial simulated annealing over :class:`PlacementCostModel`.

    Each temperature proposes ``_MOVES_PER_BLOCK`` range-limited moves per
    movable block, one after the other: a block steps to a site within
    the range window (an occupied target is an exchange swap), the model
    returns the exact cost delta, and the Metropolis test commits or
    rejects the move before the next one is drawn.  Temperature and range
    window follow VPR's adaptive schedule, which holds the acceptance
    rate near 0.44 by shrinking the window as the anneal cools; a last
    sweep at range 1 takes only strict improvements.

    Everything runs on the calling thread and every random draw comes
    from one generator seeded by ``seed``; ``options`` is accepted and
    not read (see :class:`~repro.pnr.options.PnROptions`).
    """

    #: VPR's schedule: the start temperature accepts about this share of
    #: uphill moves of mean size, and the anneal stops when
    #: T < _EXIT_FACTOR * cost / nets.
    _INITIAL_ACCEPTANCE = 0.5
    _EXIT_FACTOR = 0.005
    _MAX_ROUNDS = 2000

    def __init__(self, options: PnROptions | None = None, seed: int = 0):
        self.options = options if options is not None else PnROptions()
        self.seed = seed
        self.last_stats: PlacementStats | None = None

    # ------------------------------------------------------- one temperature
    @staticmethod
    def _round(
        model: PlacementCostModel,
        occupant: list[int | None],
        movable: np.ndarray,
        fabric: FabricGrid,
        rng: np.random.Generator,
        stats: PlacementStats,
        n: int,
        temperature: float,
        rlim: int,
    ) -> tuple[int, int]:
        """``n`` proposals at one temperature, each staged on the model
        and committed or rejected before the next; ``temperature == 0``
        accepts only strict improvements.  Returns ``(evaluated,
        accepted)``."""
        # three fixed-size draws, consumed in order (the x and y
        # displacements share one): the generator's state after a round is
        # a function of seed and geometry alone
        blocks = movable[rng.integers(0, movable.size, size=n)].tolist()
        steps = rng.integers(-rlim, rlim + 1, size=2 * n).tolist()
        uniforms = rng.random(n).tolist()

        xs, ys = model.xs, model.ys
        stage, commit, reject = model.stage, model.commit, model.reject
        exp = math.exp
        max_x, max_y, height = fabric.width - 1, fabric.height - 1, fabric.height
        evaluated = accepted = 0
        started = time.perf_counter()
        for b, dx, dy, u in zip(blocks, steps[:n], steps[n:], uniforms):
            old_x, old_y = xs[b], ys[b]
            x = old_x + dx
            if x < 0:
                x = 0
            elif x > max_x:
                x = max_x
            y = old_y + dy
            if y < 0:
                y = 0
            elif y > max_y:
                y = max_y
            if x == old_x and y == old_y:
                continue
            site = x * height + y
            swap = occupant[site]
            delta = stage(b, x, y, swap)
            evaluated += 1
            # at delta == 0, exp(0) exceeds every uniform in [0, 1)
            if delta < 0 or (temperature and u < exp(-delta / temperature)):
                commit()
                occupant[site] = b
                occupant[old_x * height + old_y] = swap
                accepted += 1
            else:
                reject()
        stats.place_delta_seconds += time.perf_counter() - started
        stats.moves_proposed += n
        stats.moves_evaluated += evaluated
        stats.moves_accepted += accepted
        return evaluated, accepted

    # ---------------------------------------------------------------- schedule
    @staticmethod
    def _cool(temperature: float, alpha: float) -> float:
        """VPR's adaptive cooling: fast through the trivial-acceptance and
        frozen phases, slow through the productive middle."""
        if alpha > 0.96:
            return temperature * 0.5
        if alpha > 0.8:
            return temperature * 0.9
        if alpha > 0.15:
            return temperature * 0.95
        return temperature * 0.8

    def place(
        self, netlist: FunctionBlockNetlist, fabric: FabricGrid | None = None
    ) -> Placement:
        """Place the netlist; returns the final placement.

        Populates :attr:`last_stats` with the run's observability data.
        """
        fabric = fabric if fabric is not None else FabricGrid.for_netlist(netlist)
        stats = PlacementStats()
        self.last_stats = stats

        rng = np.random.default_rng(np.random.SeedSequence(self.seed).spawn(1)[0])
        model = PlacementCostModel(netlist, initial_positions(netlist, fabric, rng))
        core = [
            i for i, block in enumerate(netlist.blocks.values())
            if block.type != BlockType.IO
        ]
        movable = np.array([b for b in core if model.nets_of[b]], dtype=np.int64)

        if movable.size:
            occupant: list[int | None] = [None] * fabric.n_sites
            for b in core:
                occupant[model.xs[b] * fabric.height + model.ys[b]] = b
            n = max(16, _MOVES_PER_BLOCK * movable.size)
            n_nets = len(model.net_costs)
            max_dim = max(fabric.width, fabric.height)
            temperature = max(1.0, model.total / n_nets) / self._INITIAL_ACCEPTANCE
            rlim = float(max_dim)
            for _ in range(self._MAX_ROUNDS):
                evaluated, accepted = self._round(
                    model, occupant, movable, fabric, rng, stats,
                    n, temperature, max(1, round(rlim)),
                )
                stats.temperatures.append((temperature, n, accepted))
                alpha = accepted / max(evaluated, 1)
                temperature = self._cool(temperature, alpha)
                rlim = min(float(max_dim), max(1.0, rlim * (0.56 + alpha)))
                if (
                    model.total == 0
                    or temperature < self._EXIT_FACTOR * model.total / n_nets
                ):
                    break
            self._round(model, occupant, movable, fabric, rng, stats, n, 0.0, 1)

        stats.final_cost = model.total
        return Placement(fabric, model.positions())
