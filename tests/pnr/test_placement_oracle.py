"""The annealer's fused move loop against the move model it replaced.

``ReferenceCostModel`` and ``reference_round`` are the stage / commit /
reject model and the move loop over it as they stood before the loop was
fused, kept verbatim as the oracle: small nets rescanned, nets of 12
members or more on a counted bounding box, every move staged as a
``_pending`` tuple.  The fused ``ParallelAnnealingPlacer._round`` must make
the same decision on every move from the same draws, keep its running
total equal to a from-scratch sweep, and keep every counted box equal to a
fresh scan of its members.
"""

from __future__ import annotations

import math
import random
import time

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from random_start import initial_positions

from repro.errors import PnRError
from repro.mapper.netlist import Block, BlockType, FunctionBlockNetlist, Net
from repro.pnr.fabric import FabricGrid
from repro.pnr.placement import (
    ParallelAnnealingPlacer,
    PlacementCostModel,
    PlacementStats,
)

#: nets with at least this many member blocks track their bounding box
#: incrementally (boundary values + counts) instead of rescanning members.
_BBOX_TRACK_THRESHOLD = 12


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


class ReferenceCostModel(PlacementCostModel):
    """The staged move model: ``stage`` prices a move by re-evaluating the
    nets incident to the moved blocks, ``commit`` / ``reject`` finalise or
    undo it."""

    def __init__(self, netlist: FunctionBlockNetlist, positions: dict[str, tuple[int, int]]):
        super().__init__(netlist, positions)
        members = self.members_by_net
        self._net_sets = [frozenset(incident) for incident in self.nets_of]

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


def reference_round(
    model: ReferenceCostModel,
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


# --------------------------------------------------------------------------
# the fused loop makes the reference's decisions
# --------------------------------------------------------------------------


class RecordingOccupancy(list):
    """A site -> block list that logs every write: the annealer writes it
    exactly when it accepts a move, so the log is the decision sequence."""

    def __init__(self, *args):
        super().__init__(*args)
        self.writes: list[tuple[int, int | None]] = []

    def __setitem__(self, site, block):
        self.writes.append((site, block))
        super().__setitem__(site, block)


def random_netlist(rng: random.Random, n_blocks: int, n_nets: int, max_fanout: int):
    """PE blocks and up to three I/O blocks; sinks are drawn with
    replacement, so a net may repeat a sink or hold only its driver."""
    netlist = FunctionBlockNetlist("oracle")
    names = [f"pe{i}" for i in range(n_blocks)]
    for name in names:
        netlist.add_block(Block(name, BlockType.PE))
    for k in range(rng.randint(0, 3)):
        netlist.add_block(Block(f"io{k}", BlockType.IO))
        sinks = tuple(rng.choice(names) for _ in range(rng.randint(1, 3)))
        netlist.add_net(Net(f"io{k}", driver=f"io{k}", sinks=sinks))
    for i in range(n_nets):
        fanout = rng.randint(1, max_fanout)
        sinks = tuple(rng.choice(names) for _ in range(fanout))
        netlist.add_net(Net(f"n{i}", driver=rng.choice(names), sinks=sinks))
    return netlist


def assert_boxes_fresh(model: PlacementCostModel) -> None:
    for net, members in enumerate(model.members_by_net):
        if len(members) < 3:
            assert model.boxes[net] is None, net
            continue
        member_xs = [model.xs[m] for m in members]
        member_ys = [model.ys[m] for m in members]
        lo_x, hi_x, lo_y, hi_y = min(member_xs), max(member_xs), min(member_ys), max(member_ys)
        assert model.boxes[net] == [
            lo_x, member_xs.count(lo_x), hi_x, member_xs.count(hi_x),
            lo_y, member_ys.count(lo_y), hi_y, member_ys.count(hi_y),
        ], net


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    n_blocks=st.integers(min_value=2, max_value=40),
    n_nets=st.integers(min_value=1, max_value=40),
    max_fanout=st.integers(min_value=1, max_value=30),
    spare_sites=st.integers(min_value=0, max_value=12),
    rounds=st.lists(
        st.tuples(
            st.sampled_from([0.0, 0.25, 1.0, 4.0, 30.0]),  # temperature
            st.integers(min_value=1, max_value=6),  # range window
            st.integers(min_value=1, max_value=60),  # proposals
        ),
        min_size=1,
        max_size=8,
    ),
)
def test_fused_loop_makes_every_reference_decision(
    seed, n_blocks, n_nets, max_fanout, spare_sites, rounds
):
    rng = random.Random(seed)
    netlist = random_netlist(rng, n_blocks, n_nets, max_fanout)
    height = max(1, math.isqrt(n_blocks + spare_sites))
    fabric = FabricGrid(-(-(n_blocks + spare_sites) // height), height)
    positions = initial_positions(netlist, fabric, np.random.default_rng(seed))
    fused = PlacementCostModel(netlist, positions)
    reference = ReferenceCostModel(netlist, positions)
    assert fused.total == reference.total == fused.full_cost()
    assert_boxes_fresh(fused)

    core = [b for b, block in enumerate(netlist.blocks.values()) if block.type != BlockType.IO]
    movable = np.array([b for b in core if fused.nets_of[b]], dtype=np.int64)
    occupied = [None] * fabric.n_sites
    for b in core:
        occupied[fused.xs[b] * fabric.height + fused.ys[b]] = b
    fused_sites, reference_sites = RecordingOccupancy(occupied), RecordingOccupancy(occupied)
    fused_rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    fused_stats, reference_stats = PlacementStats(), PlacementStats()

    for temperature, rlim, n in rounds:
        counts = ParallelAnnealingPlacer._round(
            fused, fused_sites, movable, fabric, fused_rng, fused_stats, n, temperature, rlim
        )
        assert counts == reference_round(
            reference, reference_sites, movable, fabric, reference_rng,
            reference_stats, n, temperature, rlim,
        )
        assert fused_sites.writes == reference_sites.writes
        assert (fused.xs, fused.ys) == (reference.xs, reference.ys)
        assert fused.total == reference.total == fused.full_cost()
        assert_boxes_fresh(fused)
    # the draws were consumed alike: the generators are in the same state
    assert fused_rng.random() == reference_rng.random()
