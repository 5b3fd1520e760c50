"""The instance-level Algorithm-1 scheduler and the cycle-level pipeline
simulator: the reference the analytic performance model is checked against.

The compile path never expands a core-op graph into instances.  The mapper
allocates weight groups and counts SMBs with ``smbs_per_edge``, and
:mod:`repro.perf.analytic` prices the pipeline from the allocation.  This
module is the slow, literal model of the same hardware:

* :func:`expand` turns a grouped ``CoreOpGraph`` into one node per crossbar
  tile and reuse position;
* :func:`schedule_instances` is the greedy Algorithm 1 of Section 5.2, and
  :func:`validate_schedule` re-checks its constraints;
* :func:`simulate` streams samples through a schedule and measures the
  initiation interval, throughput and latency.

:func:`reference_schedule` is the whole path for one mapping.  Models past
:data:`INSTANCE_LIMIT` instances (every ImageNet model) raise
``SynthesisError`` at expansion; the analytic model is the only one there.

Import it from ``tests/perf/`` as ``from reference_schedule import ...``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field

from repro.errors import InvalidRequestError, MappingError, SynthesisError
from repro.synthesizer.coreop import CoreOpGraph

#: expansions larger than this are refused: scheduling them would dominate
#: the test run, and the analytic model covers them.
INSTANCE_LIMIT = 20_000


# --------------------------------------------------------------------------
# instance-level expansion
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class CoreOpInstance:
    """One core-op: one tile of a weight group at one reuse position."""

    name: str
    group: str
    tile_index: int
    reuse_index: int


@dataclass
class CoreOpInstanceGraph:
    """A fully expanded, instance-level core-op DAG; an edge is a
    (producer, consumer) pair of instance names."""

    name: str
    instances: dict[str, CoreOpInstance] = field(default_factory=dict)
    edges: list[tuple[str, str]] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.instances)

    def topological(self) -> list[CoreOpInstance]:
        in_degree = dict.fromkeys(self.instances, 0)
        adjacency: dict[str, list[str]] = {n: [] for n in self.instances}
        for src, dst in self.edges:
            in_degree[dst] += 1
            adjacency[src].append(dst)
        ready = deque(n for n, d in in_degree.items() if d == 0)
        order = []
        while ready:
            name = ready.popleft()
            order.append(self.instances[name])
            for succ in adjacency[name]:
                in_degree[succ] -= 1
                if in_degree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.instances):
            raise SynthesisError("instance graph contains a cycle")
        return order


def expand(
    graph: CoreOpGraph,
    max_rows: int = 256,
    max_cols: int = 256,
    max_reuse: int | None = None,
    max_instances: int = 200_000,
) -> CoreOpInstanceGraph:
    """Expand a grouped core-op graph into an instance-level DAG.

    ``max_reuse`` caps the reuse positions expanded per group (a
    representative slice of a large CNN); an expansion past
    ``max_instances`` raises ``SynthesisError``.
    """

    def reuse_of(group) -> int:
        return group.reuse if max_reuse is None else min(group.reuse, max_reuse)

    total = sum(reuse_of(g) * g.min_pes(max_rows, max_cols) for g in graph.groups())
    if total > max_instances:
        raise SynthesisError(
            f"expansion would create {total} instances (> {max_instances}); "
            "cap reuse with max_reuse or use the group-level mapper"
        )

    result = CoreOpInstanceGraph(graph.name)
    #: per group: its instance names, reuse-major
    per_group: dict[str, list[str]] = {}
    for group in graph.topological_groups():
        n_tiles = group.min_pes(max_rows, max_cols)
        names = per_group[group.name] = []
        for r in range(reuse_of(group)):
            for t in range(n_tiles):
                name = f"{group.name}#r{r}t{t}"
                result.instances[name] = CoreOpInstance(name, group.name, t, r)
                names.append(name)

    # reuse position i of a consumer reads the producer's matching position
    # (scaled when the reuse degrees differ), across all producer tiles
    for edge in graph.edges():
        if edge.src not in per_group or edge.dst not in per_group:
            continue
        sources, sinks = per_group[edge.src], per_group[edge.dst]
        src_tiles = graph.group(edge.src).min_pes(max_rows, max_cols)
        dst_tiles = graph.group(edge.dst).min_pes(max_rows, max_cols)
        src_reuse = len(sources) // src_tiles
        dst_reuse = len(sinks) // dst_tiles
        for dst_pos in range(dst_reuse):
            src_pos = min(int(dst_pos * src_reuse / dst_reuse), src_reuse - 1)
            for st in range(src_tiles):
                for dt in range(dst_tiles):
                    result.edges.append(
                        (sources[src_pos * src_tiles + st], sinks[dst_pos * dst_tiles + dt])
                    )
    return result


# --------------------------------------------------------------------------
# Algorithm 1
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ScheduledOp:
    """One scheduled core-op instance."""

    name: str
    group: str
    pe: str
    start: int
    end: int

    @property
    def duration(self) -> int:
        return self.end - self.start


@dataclass
class Schedule:
    """Start and end cycle of every instance, and the edges that need an
    SMB buffer."""

    model: str
    window: int
    ops: dict[str, ScheduledOp] = field(default_factory=dict)
    #: (producer instance, consumer instance) pairs that read an SMB buffer.
    buffered_edges: set[tuple[str, str]] = field(default_factory=set)

    @property
    def makespan(self) -> int:
        """Cycles from the first start to the last end."""
        if not self.ops:
            return 0
        ops = self.ops.values()
        return max(op.end for op in ops) - min(op.start for op in ops)

    @property
    def n_buffers(self) -> int:
        return len(self.buffered_edges)

    def pe_intervals(self) -> dict[str, list[tuple[int, int]]]:
        """Sorted busy intervals per PE."""
        intervals: dict[str, list[tuple[int, int]]] = {}
        for op in self.ops.values():
            intervals.setdefault(op.pe, []).append((op.start, op.end))
        for spans in intervals.values():
            spans.sort()
        return intervals

    def pe_utilization(self) -> float:
        """Average fraction of the makespan each PE spends computing."""
        if not self.ops:
            return 0.0
        intervals = self.pe_intervals()
        busy = sum(op.duration for op in self.ops.values())
        return busy / (len(intervals) * max(self.makespan, 1))


def assign_pes(instances: CoreOpInstanceGraph, allocation) -> dict[str, str]:
    """Tile ``t`` of reuse position ``r`` runs on duplicate
    ``r % duplication``: reuse positions go round-robin over duplicates."""
    assignment = {}
    for instance in instances.instances.values():
        duplicate = instance.reuse_index % allocation.allocation(instance.group).duplication
        assignment[instance.name] = f"{instance.group}::pe{instance.tile_index}.{duplicate}"
    return assignment


def _earliest_free_slot(intervals: list[tuple[int, int]], earliest: int, duration: int) -> int:
    """Earliest start >= ``earliest`` at which ``duration`` cycles overlap
    none of the sorted ``intervals``."""
    start = earliest
    for busy_start, busy_end in intervals:
        if busy_end <= start:
            continue
        if busy_start >= start + duration:
            break
        start = busy_end
    return start


def schedule_instances(
    instances: CoreOpInstanceGraph, allocation, window: int = 64
) -> Schedule:
    """Greedy Algorithm-1 scheduling of an instance graph.

    Every instance gets a PE, a start and an end such that:

    * **RC** (resource conflict): instances on one PE never overlap;
    * **NBD** (no-buffer dependency): a consumer streaming from its
      producer covers it shifted by one cycle (``sv <= su + 1``,
      ``ev >= eu + 1``);
    * **BD** (buffered dependency): a consumer reading a buffer starts
      after the producer ends (``sv > eu``);
    * **BC** (buffer conflict): readers of one buffer start at least one
      window apart;
    * **SW** (sampling window): every instance runs at least one window.

    Instances are walked in topological order and stream (NBD) whenever
    possible; a predecessor that cannot stream gets a buffer.  Unlike the
    paper's pseudo-code, scheduled predecessors are never pushed later:
    buffering the offending edge always satisfies the constraints.
    """
    if window <= 0:
        raise MappingError("window must be positive")
    assignment = assign_pes(instances, allocation)
    result = Schedule(model=instances.name, window=window)
    pe_busy: dict[str, list[tuple[int, int]]] = {}
    #: per producer instance: start of its latest buffered read (BC)
    last_buffer_read: dict[str, int] = {}
    predecessors: dict[str, list[str]] = {name: [] for name in instances.instances}
    for src, dst in instances.edges:
        predecessors[dst].append(src)

    for instance in instances.topological():
        name = instance.name
        preds = predecessors[name]
        pred_ops = [result.ops[p] for p in preds]
        if pred_ops:  # streaming (NBD) tentative timing
            desired_start = min(op.start for op in pred_ops) + 1
            min_end = max(op.end for op in pred_ops) + 1
        else:
            desired_start, min_end = 0, window

        buffered: set[str] = set()
        intervals = pe_busy.setdefault(assignment[name], [])
        start = desired_start
        for _ in range(len(preds) + 2):
            slot = _earliest_free_slot(intervals, start, max(window, min_end - start))
            newly_buffered = [
                op for op in pred_ops if op.name not in buffered and slot > op.start + 1
            ]
            if not newly_buffered:
                start = slot
                break
            buffered.update(op.name for op in newly_buffered)
            # the earliest start under BD and BC for the buffered preds
            start = desired_start
            unbuffered = [op for op in pred_ops if op.name not in buffered]
            if unbuffered:
                start = min(op.start for op in unbuffered) + 1
                min_end = max(op.end for op in unbuffered) + 1
            else:
                min_end = 0
            for op in pred_ops:
                if op.name in buffered:
                    start = max(start, op.end + 1)
                    if op.name in last_buffer_read:
                        start = max(start, last_buffer_read[op.name] + window)
        else:  # every predecessor buffered
            start = _earliest_free_slot(intervals, start, max(window, min_end - start))

        end = start + max(window, min_end - start)
        result.ops[name] = ScheduledOp(name, instance.group, assignment[name], start, end)
        intervals.append((start, end))
        intervals.sort()
        for op in pred_ops:
            if op.name in buffered:
                result.buffered_edges.add((op.name, name))
                last_buffer_read[op.name] = max(last_buffer_read.get(op.name, 0), start)
    return result


def validate_schedule(schedule: Schedule, instances: CoreOpInstanceGraph) -> list[str]:
    """Every violated constraint of :func:`schedule_instances`, as text."""
    violations: list[str] = []
    window = schedule.window
    for op in schedule.ops.values():
        if op.duration < window:
            violations.append(f"SW: {op.name} runs {op.duration} < {window} cycles")
    for pe, intervals in schedule.pe_intervals().items():
        for (s1, e1), (s2, e2) in zip(intervals, intervals[1:], strict=False):
            if s2 < e1:
                violations.append(f"RC: overlap on {pe}: ({s1},{e1}) and ({s2},{e2})")
    for src, dst in instances.edges:
        producer, consumer = schedule.ops.get(src), schedule.ops.get(dst)
        if producer is None or consumer is None:
            violations.append(f"missing schedule entry for edge {src}->{dst}")
        elif (src, dst) in schedule.buffered_edges:
            if consumer.start <= producer.end:
                violations.append(
                    f"BD: {dst} starts at {consumer.start} <= producer end {producer.end}"
                )
        else:
            if consumer.start > producer.start + 1:
                violations.append(f"NBD: {dst} starts {consumer.start} > {producer.start}+1")
            if consumer.end < producer.end + 1:
                violations.append(f"NBD: {dst} ends {consumer.end} < {producer.end}+1")
    readers: dict[str, list[int]] = {}
    for src, dst in schedule.buffered_edges:
        readers.setdefault(src, []).append(schedule.ops[dst].start)
    for src, starts in readers.items():
        starts.sort()
        for a, b in zip(starts, starts[1:], strict=False):
            if a != b and b - a < window:
                violations.append(f"BC: readers of {src} start {a} and {b} within one window")
    return violations


def reference_schedule(coreops: CoreOpGraph, allocation, pe, max_reuse=None) -> Schedule:
    """Expand ``coreops`` at ``pe``'s crossbar shape and schedule it with
    ``pe``'s sampling window."""
    instances = expand(
        coreops, pe.rows, pe.logical_cols, max_reuse, max_instances=INSTANCE_LIMIT
    )
    return schedule_instances(instances, allocation, window=pe.sampling_window)


# --------------------------------------------------------------------------
# the cycle-level pipeline simulator
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class PipelineRun:
    """Measured behaviour of a schedule executed for a stream of samples."""

    model: str
    n_samples: int
    initiation_interval_cycles: int
    makespan_cycles: int
    total_cycles: int
    cycle_ns: float

    @property
    def latency_us(self) -> float:
        """Latency of one sample through the pipeline."""
        return self.makespan_cycles * self.cycle_ns / 1e3

    @property
    def throughput_samples_per_s(self) -> float:
        """Steady state: one sample per initiation interval."""
        return 1e9 / (self.initiation_interval_cycles * self.cycle_ns)


def _first_overlap(spans: list[tuple[int, int]]):
    """The first overlapping neighbours of the sorted ``spans``, or ``None``."""
    for (s1, e1), (s2, e2) in zip(spans, spans[1:], strict=False):
        if s2 < e1:
            return (s1, e1), (s2, e2)
    return None


def _overlap(intervals: list[tuple[int, int]], offset: int):
    """The first overlap between ``intervals`` and a copy of them shifted
    by ``offset`` cycles, or ``None``."""
    return _first_overlap(sorted(intervals + [(s + offset, e + offset) for s, e in intervals]))


def minimum_initiation_interval(schedule: Schedule) -> int:
    """The smallest whole-window offset between successive samples at which
    no PE runs two core-ops at once, starting from the busiest PE's load.
    Each sample repeats the one schedule, so the search ends at
    ``makespan + 1`` (one sample at a time)."""
    if not schedule.ops:
        return schedule.window
    intervals_by_pe = schedule.pe_intervals()
    busiest = max(sum(e - s for s, e in spans) for spans in intervals_by_pe.values())
    candidate = max(busiest, schedule.window)
    upper = max(schedule.makespan, candidate) + 1
    while candidate < upper:
        if all(_overlap(spans, candidate) is None for spans in intervals_by_pe.values()):
            return candidate
        candidate += schedule.window
    return upper


def simulate(
    schedule: Schedule, cycle_ns: float, n_samples: int = 8, ii: int | None = None
) -> PipelineRun:
    """Stream ``n_samples`` samples through ``schedule``, one every ``ii``
    cycles (default: :func:`minimum_initiation_interval`).

    Raises ``RuntimeError`` when a PE is double-booked.  The stream is
    periodic, so sample 0 against each later sample it can overlap covers
    every pair: the check costs the same for any ``n_samples``.
    """
    if n_samples <= 0:
        raise InvalidRequestError("n_samples must be positive")
    if ii is None:
        ii = minimum_initiation_interval(schedule)
    for pe, intervals in schedule.pe_intervals().items():
        span = max(e for _, e in intervals) - intervals[0][0]
        # k = 0: the schedule itself must not double-book the PE
        overlaps = [_first_overlap(intervals)] + [
            _overlap(intervals, k * ii)
            for k in range(1, min(n_samples - 1, (span - 1) // ii) + 1)
        ]
        for found in overlaps:
            if found is not None:
                (s1, e1), (s2, e2) = found
                raise RuntimeError(
                    f"initiation interval {ii} double-books PE {pe}: "
                    f"({s1},{e1}) overlaps ({s2},{e2})"
                )
    return PipelineRun(
        model=schedule.model,
        n_samples=n_samples,
        initiation_interval_cycles=ii,
        makespan_cycles=schedule.makespan,
        total_cycles=schedule.makespan + (n_samples - 1) * ii,
        cycle_ns=cycle_ns,
    )
