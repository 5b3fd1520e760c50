"""Placement: a quadratic start refined by simulated annealing.

The placer assigns every block of the function-block netlist to a fabric
site, minimising the total half-perimeter wirelength (HPWL) of the nets —
the same objective and algorithm family as the VPR/mrVPR tool the paper
uses.  I/O blocks are constrained to the peripheral I/O sites.
:func:`start_positions` solves a star-model quadratic placement and
legalises it, as SimPL does (Kim, Lee & Markov, ICCAD 2010); the anneal
refines it from a cold start, drawing from its seed for the moves alone.

:class:`PlacementCostModel` is the objective's state: flat coordinate
lists, the partners of every two-pin net, one counted bounding box per
larger net, and the total.  :class:`ParallelAnnealingPlacer` is the one
annealer, and its move loop is the only code that prices a move: the
exact integer delta of a relocation or swap, net by net, in place.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from ..errors import CapacityError
from ..mapper.netlist import BlockType, FunctionBlockNetlist, Net
from .fabric import FabricGrid
from .options import PnROptions

__all__ = [
    "Placement",
    "PlacementCostModel",
    "PlacementStats",
    "ParallelAnnealingPlacer",
    "start_positions",
]

#: proposed moves per movable block per temperature: the smallest whole
#: number at which the golden netlists pass at their recorded seed.
_MOVES_PER_BLOCK = 2


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
    """The HPWL objective's state, laid out for the move loop.

    Block coordinates live in flat lists ``xs`` / ``ys`` indexed by a dense
    block id, and each net's distinct members are an id list.  A net is
    laid out by its arity: a two-pin net is only a partner id in
    ``partners`` on each side, priced in closed form as the Manhattan
    distance; a net of three or more members keeps a counted bounding box
    ``boxes[net]`` — per axis (min, members on it, max, members on it) —
    and is listed in ``box_nets`` of each member; a single-member net costs
    nothing and appears only in ``nets_of``.  :meth:`full_cost` evaluates
    every net in one numpy ``reduceat`` sweep, the ground truth the move
    loop's running ``total`` is tested against.
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

        self.xs = [0] * len(names)
        self.ys = [0] * len(names)
        for name, (px, py) in positions.items():
            b = self.block_index[name]
            self.xs[b] = px
            self.ys[b] = py

        self.nets_of: list[list[int]] = [[] for _ in names]
        self.partners: list[list[int]] = [[] for _ in names]
        self.box_nets: list[list[int]] = [[] for _ in names]
        self.boxes: list[list[int] | None] = [None] * len(members)
        #: a boxed net's members as a set: the move loop's test for a net
        #: holding both ends of a swap
        self.member_sets: list[frozenset[int] | None] = [None] * len(members)
        for index, member_ids in enumerate(members):
            for b in member_ids:
                self.nets_of[b].append(index)
            if len(member_ids) == 2:
                a, b = member_ids
                self.partners[a].append(b)
                self.partners[b].append(a)
            elif len(member_ids) > 2:
                box: list[int] = []
                for coords in (self.xs, self.ys):
                    values = [coords[b] for b in member_ids]
                    lo, hi = min(values), max(values)
                    box += (lo, values.count(lo), hi, values.count(hi))
                self.boxes[index] = box
                self.member_sets[index] = frozenset(member_ids)
                for b in member_ids:
                    self.box_nets[b].append(index)
        #: nets a move of each block prices
        self.priced = [len(p) + len(q) for p, q in zip(self.partners, self.box_nets)]
        self.total = self.full_cost()

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
        """Total HPWL recomputed from scratch (ground truth for the move
        loop's running total)."""
        return int(self._sweep().sum())

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
    #: HPWL of the constructive start and of the final placement
    start_cost: int = 0
    final_cost: int = 0
    #: nets priced across the evaluated moves (a net holding both ends of
    #: a swap is skipped, not priced) and, of the bounding boxes among
    #: them, the axis boundaries found again by rescanning the members
    nets_repriced: int = 0
    box_rescans: int = 0
    #: seconds spent building the start and inside the move loop
    start_seconds: float = 0.0
    place_delta_seconds: float = 0.0

    @property
    def rounds(self) -> int:
        return len(self.temperatures)


#: the quadratic start: each free node's pull to the fabric's centre (a
#: two-pin net weighs 1), and the passes that pull the core blocks to their
#: last legal sites, by _ANCHOR_WEIGHT more each time (SimPL's pseudo-nets)
_CENTRE_WEIGHT = 1e-3
_SPREAD_PASSES = 8
_ANCHOR_WEIGHT = 0.03


def _conjugate_gradient(apply, diag: np.ndarray, rhs: np.ndarray, x: np.ndarray) -> None:
    """Jacobi-preconditioned conjugate gradient for ``apply(x) == rhs``, in place."""
    r = rhs - apply(x)
    p = z = r / diag
    rz = r @ z
    tolerance = 1e-18 * max(rhs @ rhs, 1.0)
    for _ in range(rhs.size):
        if r @ r <= tolerance:
            break
        q = apply(p)
        step = rz / (p @ q)
        x += step * p
        r -= step * q
        z = r / diag
        rz, previous = r @ z, rz
        p = z + rz / previous * p


def start_positions(
    netlist: FunctionBlockNetlist, fabric: FabricGrid
) -> dict[str, tuple[int, int]]:
    """The legal placement the anneal starts from, a function of the netlist
    and the fabric only: a net of k >= 3 members is a star node joined to
    each with weight k / (k - 1), I/O blocks are anchors at mid height (left
    if they drive a net, else right), and the solve by conjugate gradient is
    legalised by x into equal shares of the columns, each by y onto rows
    spread over its height.  An I/O block takes the nearest free I/O site."""
    core = [b.name for b in netlist.blocks.values() if b.type != BlockType.IO]
    io = [b.name for b in netlist.blocks.values() if b.type == BlockType.IO]
    if len(core) > fabric.n_sites:
        raise CapacityError(
            f"netlist has {len(core)} blocks but the fabric only has {fabric.n_sites} sites",
            details={"blocks": len(core), "sites": fabric.n_sites},
        )
    io_sites = [s.position for s in fabric.io_sites()]
    if len(io) > len(io_sites):
        raise CapacityError(
            "not enough I/O sites for the netlist's I/O blocks",
            details={"io_blocks": len(io), "io_sites": len(io_sites)},
        )

    # the unknowns are the core blocks, then the stars; an I/O block is an
    # anchor, numbered from -len(io) so that it indexes the anchor columns
    drivers = {net.driver for net in netlist.nets}
    centre = ((fabric.width - 1) / 2, (fabric.height - 1) / 2)
    anchors = {name: (-1 if name in drivers else fabric.width, centre[1]) for name in io}
    index = dict(zip(core + io, [*range(len(core)), *range(-len(io), 0)]))
    n_core = n = len(core)
    edges = []
    for net in netlist.nets:
        members = [index[b] for b in dict.fromkeys((net.driver, *net.sinks))]
        if len(members) == 2:
            edges.append((*members, 1.0))
        elif len(members) > 2:
            edges += [(m, n, len(members) / (len(members) - 1)) for m in members]
            n += 1
    table = np.array(edges, dtype=float).reshape(-1, 3)
    rows, cols = np.concatenate((table[:, :2], table[:, 1::-1])).T.astype(np.intp)
    w = np.tile(table[:, 2], 2)
    rows, cols, w = rows[rows >= 0], cols[rows >= 0], w[rows >= 0]
    # an anchor adds to its neighbour's diagonal and right-hand side only
    degree = np.bincount(rows, w, n) + _CENTRE_WEIGHT
    fixed = np.array([anchors[name] for name in io]).reshape(-1, 2).T
    pinned = cols < 0
    rhs = np.concatenate([
        np.bincount(rows[pinned], w[pinned] * f[cols[pinned]], n) + _CENTRE_WEIGHT * c
        for f, c in zip(fixed, centre)
    ])
    # the Laplacian of x then y by row, each row's diagonal first: a
    # product is one gather and one reduceat
    rows = np.concatenate((np.arange(n), rows[~pinned]))
    order = np.argsort(rows, kind="stable")
    cols = np.concatenate((np.arange(n), cols[~pinned]))[order]
    cols = np.concatenate((cols, cols + n))
    weights = np.tile(np.concatenate((np.zeros(n), -w[~pinned]))[order], 2)
    diagonal = np.searchsorted(rows[order], np.arange(n))
    diagonal = np.concatenate((diagonal, diagonal + order.size))
    pull = np.zeros(n)  # each core block's pseudo-net to its last legal site

    def apply(z: np.ndarray) -> np.ndarray:
        return np.add.reduceat(weights * z[cols], diagonal)

    # the k-th core block by x takes column[k], the k-th by column, y and
    # x takes row[k]: equal shares of the columns, rows spread over each
    bounds = np.arange(fabric.width + 1) * n_core // fabric.width
    column = np.repeat(np.arange(fabric.width), np.diff(bounds))
    row = (2 * (np.arange(n_core) - bounds[column]) + 1) * fabric.height
    row //= 2 * np.diff(bounds)[column]
    solved, legal, blocks = np.repeat(centre, n), np.zeros((2, n)), np.arange(n_core)
    for spread_pass in range(_SPREAD_PASSES + 1):
        pull[:n_core] = _ANCHOR_WEIGHT * spread_pass
        weights[diagonal] = np.tile(degree + pull, 2)
        _conjugate_gradient(apply, weights[diagonal], rhs + (pull * legal).ravel(), solved)
        # rounded so that blocks the solve placed alike sort by index
        xs, ys = np.round(solved.reshape(2, n)[:, :n_core], 6)
        legal[0, np.lexsort((blocks, ys, xs))] = column
        legal[1, np.lexsort((blocks, xs, ys, legal[0, :n_core]))] = row

    positions = dict(zip(core, map(tuple, legal[:, :n_core].T.astype(int).tolist())))
    for name in io:
        site = min(io_sites, key=lambda s, a=anchors[name]: FabricGrid.manhattan(s, a))
        io_sites.remove(site)
        positions[name] = site
    return positions


class ParallelAnnealingPlacer:
    """Serial simulated annealing over :class:`PlacementCostModel`.

    Each temperature proposes ``_MOVES_PER_BLOCK`` range-limited moves per
    movable block, one after the other: a block steps to a site within
    the range window (an occupied target is an exchange swap), the move
    loop prices its exact cost delta on the model, and the Metropolis test
    accepts or rejects it before the next one is drawn.  It refines
    :func:`start_positions`, so it starts cold: at ``_START_FACTOR`` times
    the start's mean cost per net, with a range window of that mean span.
    Then temperature and window follow VPR's adaptive schedule, which holds
    the acceptance rate near 0.44 by shrinking the window as the anneal
    cools; a last sweep at range 1 takes only strict improvements.

    Everything runs on the calling thread and every random draw comes
    from one generator seeded by ``seed``; ``options`` is accepted and
    not read (see :class:`~repro.pnr.options.PnROptions`).
    """

    #: the schedule: the anneal starts at T = _START_FACTOR * cost / nets
    #: of the start and stops when T < _EXIT_FACTOR * cost / nets (the
    #: start factor chosen over P&R seeds 0-7 of the ``pnr_cold`` netlists)
    _START_FACTOR = 0.2
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
        """``n`` proposals at one temperature, each priced and accepted or
        rejected before the next; ``temperature == 0`` accepts only strict
        improvements.  Returns ``(evaluated, accepted)``.

        A move writes the movers' coordinates in place and prices, for each
        mover, its incident nets: a two-pin net as the change of one
        Manhattan distance, a larger net by updating its counted box in
        O(1) and rescanning its members for one boundary only when that
        boundary's sole member moves inward.  A net holding both ends of a
        swap keeps its coordinate multiset and is skipped.  Accepting
        installs the changed boxes; rejecting restores the coordinates."""
        # three fixed-size draws, consumed in order (the x and y
        # displacements share one): the generator's state after a round is
        # a function of seed and geometry alone
        blocks = movable[rng.integers(0, movable.size, size=n)].tolist()
        steps = rng.integers(-rlim, rlim + 1, size=2 * n).tolist()
        uniforms = rng.random(n).tolist()

        xs, ys = model.xs, model.ys
        partners, box_nets, boxes = model.partners, model.box_nets, model.boxes
        members, member_sets, priced = model.members_by_net, model.member_sets, model.priced
        exp = math.exp
        max_x, max_y, height = fabric.width - 1, fabric.height - 1, fabric.height
        evaluated = accepted = repriced = rescans = 0
        total = model.total
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
            evaluated += 1
            xs[b] = x
            ys[b] = y
            if swap is None:
                movers = ((b, old_x, old_y, x, y, None),)
            else:
                xs[swap] = old_x
                ys[swap] = old_y
                movers = ((b, old_x, old_y, x, y, swap), (swap, x, y, old_x, old_y, b))
            delta = 0
            staged = []
            for mover, ox, oy, nx, ny, other in movers:
                repriced += priced[mover]
                for p in partners[mover]:
                    if p == other:
                        repriced -= 1
                        continue
                    px = xs[p]
                    py = ys[p]
                    delta += abs(nx - px) + abs(ny - py) - abs(ox - px) - abs(oy - py)
                for i in box_nets[mover]:
                    if other in member_sets[i]:
                        repriced -= 1
                        continue
                    lo_x, n_lo_x, hi_x, n_hi_x, lo_y, n_lo_y, hi_y, n_hi_y = boxes[i]
                    # an axis changes only when a boundary is left or reached
                    changed = False
                    if nx != ox and (
                        nx <= lo_x or nx >= hi_x or ox == lo_x or ox == hi_x
                    ):
                        changed = True
                        delta += lo_x - hi_x
                        if nx < lo_x:
                            lo_x, n_lo_x = nx, 1
                        elif nx > hi_x:
                            hi_x, n_hi_x = nx, 1
                        elif nx == lo_x:
                            n_lo_x += 1
                        elif nx == hi_x:
                            n_hi_x += 1
                        # ox is on one boundary at most: were lo == hi, nx
                        # (never ox) lay outside and has replaced one of them
                        if ox == lo_x:
                            n_lo_x -= 1
                            if not n_lo_x:
                                rescans += 1
                                lo_x = hi_x
                                for m in members[i]:
                                    v = xs[m]
                                    if v < lo_x:
                                        lo_x, n_lo_x = v, 1
                                    elif v == lo_x:
                                        n_lo_x += 1
                        elif ox == hi_x:
                            n_hi_x -= 1
                            if not n_hi_x:
                                rescans += 1
                                hi_x = lo_x
                                for m in members[i]:
                                    v = xs[m]
                                    if v > hi_x:
                                        hi_x, n_hi_x = v, 1
                                    elif v == hi_x:
                                        n_hi_x += 1
                        delta += hi_x - lo_x
                    if ny != oy and (
                        ny <= lo_y or ny >= hi_y or oy == lo_y or oy == hi_y
                    ):
                        changed = True
                        delta += lo_y - hi_y
                        if ny < lo_y:
                            lo_y, n_lo_y = ny, 1
                        elif ny > hi_y:
                            hi_y, n_hi_y = ny, 1
                        elif ny == lo_y:
                            n_lo_y += 1
                        elif ny == hi_y:
                            n_hi_y += 1
                        if oy == lo_y:
                            n_lo_y -= 1
                            if not n_lo_y:
                                rescans += 1
                                lo_y = hi_y
                                for m in members[i]:
                                    v = ys[m]
                                    if v < lo_y:
                                        lo_y, n_lo_y = v, 1
                                    elif v == lo_y:
                                        n_lo_y += 1
                        elif oy == hi_y:
                            n_hi_y -= 1
                            if not n_hi_y:
                                rescans += 1
                                hi_y = lo_y
                                for m in members[i]:
                                    v = ys[m]
                                    if v > hi_y:
                                        hi_y, n_hi_y = v, 1
                                    elif v == hi_y:
                                        n_hi_y += 1
                        delta += hi_y - lo_y
                    if changed:
                        staged.append((i, [lo_x, n_lo_x, hi_x, n_hi_x, lo_y, n_lo_y, hi_y, n_hi_y]))
            # at delta == 0, exp(0) exceeds every uniform in [0, 1)
            if delta < 0 or (temperature and u < exp(-delta / temperature)):
                for i, box in staged:
                    boxes[i] = box
                total += delta
                occupant[site] = b
                occupant[old_x * height + old_y] = swap
                accepted += 1
            else:
                xs[b] = old_x
                ys[b] = old_y
                if swap is not None:
                    xs[swap] = x
                    ys[swap] = y
        model.total = total
        stats.place_delta_seconds += time.perf_counter() - started
        stats.moves_proposed += n
        stats.moves_evaluated += evaluated
        stats.moves_accepted += accepted
        stats.nets_repriced += repriced
        stats.box_rescans += rescans
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
        started = time.perf_counter()
        start = start_positions(netlist, fabric)
        stats.start_seconds = time.perf_counter() - started
        model = PlacementCostModel(netlist, start)
        stats.start_cost = model.total
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
            n_nets = len(model.members_by_net)
            max_dim = max(fabric.width, fabric.height)
            temperature = self._START_FACTOR * model.total / n_nets
            rlim = min(float(max_dim), max(1.0, model.total / n_nets))
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
