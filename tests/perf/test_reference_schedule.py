"""The analytic performance model against the instance-level reference.

``reference_schedule.py`` holds the greedy Algorithm-1 scheduler and the
cycle-level pipeline simulator; the first half of this file tests them as
programs, the second pins how far the analytic model lies from them.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_schedule import (
    INSTANCE_LIMIT,
    CoreOpInstance,
    CoreOpInstanceGraph,
    Schedule,
    ScheduledOp,
    assign_pes,
    expand,
    minimum_initiation_interval,
    reference_schedule,
    schedule_instances,
    simulate,
    validate_schedule,
)

from repro.core.compiler import FPSACompiler
from repro.errors import SynthesisError
from repro.fuzz import ModelSpec, build_graph
from repro.mapper.allocation import allocate
from repro.models import build_model
from repro.perf.analytic import pipeline_depth
from repro.synthesizer.coreop import CoreOpGraph, WeightGroup

CORPUS_DIR = Path(__file__).parents[1] / "fuzz" / "corpus"


def chain_graph(reuses: list[int], rows: int = 256) -> CoreOpGraph:
    """A linear chain of groups with the given reuse degrees."""
    g = CoreOpGraph("chain")
    previous = None
    for i, reuse in enumerate(reuses):
        g.add_group(
            WeightGroup(
                name=f"g{i}", source=f"g{i}", kind="matmul",
                rows=rows, cols=128, reuse=reuse, macs_per_instance=rows * 128,
            )
        )
        if previous is not None:
            g.add_edge(previous, f"g{i}", rows)
        previous = f"g{i}"
    return g


def group(name: str, rows=256, cols=256, reuse=1) -> WeightGroup:
    return WeightGroup(name, name, "matmul", rows, cols, reuse, macs_per_instance=rows * cols)


@pytest.fixture(scope="module")
def lenet_schedule(lenet_coreops, lenet_mapping, config) -> Schedule:
    return reference_schedule(lenet_coreops, lenet_mapping.allocation, config.pe)


# --------------------------------------------------------------------------
# the reference as a program
# --------------------------------------------------------------------------


class TestExpansion:
    def test_instance_counts(self):
        g = CoreOpGraph("expand")
        g.add_group(group("x", rows=512, cols=128, reuse=3))
        assert len(expand(g)) == 6  # 2 row tiles x 3 reuse positions

    def test_edges_follow_group_edges(self):
        g = CoreOpGraph("edges")
        g.add_group(group("p", reuse=2))
        g.add_group(group("q", reuse=2))
        g.add_edge("p", "q", 64)
        instances = expand(g)
        assert len(instances.edges) == 2
        assert all(src.startswith("p") and dst.startswith("q") for src, dst in instances.edges)

    def test_max_reuse_cap(self):
        g = CoreOpGraph("cap")
        g.add_group(group("big", reuse=1000))
        assert len(expand(g, max_reuse=5)) == 5

    def test_instance_limit(self):
        g = CoreOpGraph("huge")
        g.add_group(group("big", reuse=10_000_000))
        with pytest.raises(SynthesisError):
            expand(g, max_instances=1000)

    def test_topological(self):
        g = CoreOpGraph("topo")
        g.add_group(group("p", reuse=4))
        g.add_group(group("q", reuse=2))
        g.add_edge("p", "q", 64)
        instances = expand(g)
        order = [i.name for i in instances.topological()]
        for src, dst in instances.edges:
            assert order.index(src) < order.index(dst)

    def test_a_cycle_is_rejected(self):
        instances = {name: CoreOpInstance(name, "g", 0, 0) for name in "ab"}
        g = CoreOpInstanceGraph("loop", instances, [("a", "b"), ("b", "a")])
        with pytest.raises(SynthesisError, match="cycle"):
            g.topological()


class TestAssignPes:
    def test_round_robin_over_duplicates(self):
        g = chain_graph([4])
        assignment = assign_pes(expand(g), allocate(g, 2))
        assert len(set(assignment.values())) == 2  # one tile x two duplicates

    def test_every_instance_assigned(self, lenet_coreops):
        instances = expand(lenet_coreops)
        assert set(assign_pes(instances, allocate(lenet_coreops, 2))) == set(
            instances.instances
        )


class TestScheduleInstances:
    def test_all_constraints_hold_for_chain(self):
        g = chain_graph([8, 4, 1])
        instances = expand(g)
        schedule = schedule_instances(instances, allocate(g, 2), window=64)
        assert validate_schedule(schedule, instances) == []

    def test_all_constraints_hold_for_lenet(self, lenet_schedule, lenet_coreops, config):
        instances = expand(lenet_coreops, config.pe.rows, config.pe.logical_cols)
        assert validate_schedule(lenet_schedule, instances) == []
        assert len(lenet_schedule.ops) == len(instances)

    def test_sampling_window_respected(self):
        g = chain_graph([2])
        schedule = schedule_instances(expand(g), allocate(g, 1), window=32)
        assert all(op.duration >= 32 for op in schedule.ops.values())

    def test_resource_conflict_serializes_same_pe(self):
        g = chain_graph([4])
        schedule = schedule_instances(expand(g), allocate(g, 1), window=64)
        intervals = schedule.pe_intervals()
        assert len(intervals) == 1  # one PE, four reuse positions
        spans = next(iter(intervals.values()))
        assert all(s2 >= e1 for (_, e1), (s2, _) in zip(spans, spans[1:], strict=False))

    def test_duplication_enables_parallelism(self):
        g = chain_graph([8])
        serial = schedule_instances(expand(g), allocate(g, 1), window=64)
        parallel = schedule_instances(expand(g), allocate(g, 4), window=64)
        assert parallel.makespan < serial.makespan

    def test_buffers_inserted_for_time_multiplexed_consumers(self):
        # a reuse-1 producer feeding a reuse-4 consumer on one PE: the later
        # consumer iterations cannot stream and read buffers
        g = CoreOpGraph("buffered")
        g.add_group(group("p", 64, 64, 1))
        g.add_group(group("c", 64, 64, 4))
        g.add_edge("p", "c", 64)
        schedule = schedule_instances(expand(g), allocate(g, 1), window=64)
        assert schedule.n_buffers >= 3
        assert validate_schedule(schedule, expand(g)) == []

    def test_streaming_chain_needs_no_buffers(self):
        g = chain_graph([1, 1, 1])
        schedule = schedule_instances(expand(g), allocate(g, 1), window=64)
        assert schedule.n_buffers == 0
        assert schedule.makespan <= 3 * 64 + 8

    def test_invalid_window_rejected(self):
        g = chain_graph([1])
        with pytest.raises(ValueError):
            schedule_instances(expand(g), allocate(g, 1), window=0)

    def test_pe_utilization_in_range(self, lenet_schedule):
        assert 0.0 < lenet_schedule.pe_utilization() <= 1.0

    def test_a_reuse_capped_imagenet_slice_schedules(self, vgg16_coreops, config):
        allocation = allocate(vgg16_coreops, 1, config.pe)
        schedule = reference_schedule(vgg16_coreops, allocation, config.pe, max_reuse=1)
        assert len(schedule.ops) > 0

    @given(
        reuses=st.lists(st.integers(min_value=1, max_value=12), min_size=1, max_size=5),
        duplication=st.integers(min_value=1, max_value=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_schedule_constraints_property(self, reuses, duplication):
        """For arbitrary chains and duplication degrees, the greedy
        scheduler always produces a constraint-satisfying schedule."""
        g = chain_graph(reuses)
        instances = expand(g)
        schedule = schedule_instances(instances, allocate(g, duplication), window=16)
        assert validate_schedule(schedule, instances) == []
        assert len(schedule.ops) == len(instances)


class TestValidateSchedule:
    def test_detects_sampling_window_violation(self):
        g = chain_graph([1])
        instances = expand(g)
        schedule = schedule_instances(instances, allocate(g, 1), window=64)
        name = next(iter(schedule.ops))
        op = schedule.ops[name]
        schedule.ops[name] = ScheduledOp(op.name, op.group, op.pe, op.start, op.start + 1)
        assert any("SW" in v for v in validate_schedule(schedule, instances))

    def test_detects_resource_conflict(self):
        g = chain_graph([2])
        instances = expand(g)
        schedule = schedule_instances(instances, allocate(g, 1), window=64)
        first, second = schedule.ops.values()
        schedule.ops[second.name] = ScheduledOp(
            second.name, second.group, first.pe, first.start, first.end
        )
        assert any("RC" in v for v in validate_schedule(schedule, instances))


class TestSimulator:
    def test_initiation_interval_at_least_window_and_busiest_pe(self, lenet_schedule, config):
        run = simulate(lenet_schedule, config.pe.cycle_ns)
        busiest = max(
            sum(e - s for s, e in spans) for spans in lenet_schedule.pe_intervals().values()
        )
        assert run.initiation_interval_cycles >= max(busiest, config.pe.sampling_window)

    def test_no_double_booking(self, lenet_schedule, config):
        simulate(lenet_schedule, config.pe.cycle_ns, n_samples=16)  # raises if it does

    def test_double_booked_schedule_raises(self, config):
        # overlapping ops on one PE within one sample, whatever the II
        schedule = Schedule(model="bad", window=4)
        schedule.ops["a"] = ScheduledOp("a", "g", "pe0", 0, 8)
        schedule.ops["b"] = ScheduledOp("b", "g", "pe0", 4, 12)
        with pytest.raises(RuntimeError, match="double-books PE pe0"):
            simulate(schedule, config.pe.cycle_ns, n_samples=4)

    def test_too_small_ii_raises(self, config):
        # sample 0 overlapping a later sample is caught by the periodic check
        schedule = Schedule(model="forced", window=2)
        schedule.ops["a"] = ScheduledOp("a", "g", "pe0", 0, 10)
        assert minimum_initiation_interval(schedule) == 10
        with pytest.raises(RuntimeError, match="double-books PE pe0"):
            simulate(schedule, config.pe.cycle_ns, n_samples=16, ii=5)

    def test_cost_independent_of_n_samples(self, lenet_schedule, config):
        import time

        small = simulate(lenet_schedule, config.pe.cycle_ns, n_samples=2)
        start = time.perf_counter()
        huge = simulate(lenet_schedule, config.pe.cycle_ns, n_samples=1_000_000)
        assert time.perf_counter() - start < 1.0
        assert huge.initiation_interval_cycles == small.initiation_interval_cycles
        assert huge.total_cycles == small.makespan_cycles + 999_999 * (
            small.initiation_interval_cycles
        )

    def test_units(self, lenet_schedule, config):
        run = simulate(lenet_schedule, config.pe.cycle_ns, n_samples=4)
        assert run.total_cycles == run.makespan_cycles + 3 * run.initiation_interval_cycles
        assert run.latency_us == pytest.approx(run.makespan_cycles * config.pe.cycle_ns / 1e3)
        assert run.throughput_samples_per_s == pytest.approx(
            1e9 / (run.initiation_interval_cycles * config.pe.cycle_ns)
        )

    def test_invalid_sample_count(self, lenet_schedule, config):
        with pytest.raises(ValueError):
            simulate(lenet_schedule, config.pe.cycle_ns, n_samples=0)


# --------------------------------------------------------------------------
# the residual of the analytic model
# --------------------------------------------------------------------------

#: the simulator's (initiation interval, makespan) in cycles at each point:
#: the zoo models the reference can expand, and the fuzz corpus specs that
#: schedule in tier-1 time (near- and over-capacity-dense expand to 3 648
#: and 7 872 instances but take 3 s and 9 s; measured there, the analytic
#: model is communication-paced, t_comm / t_vmm = 3.43 and 5.01, and the
#: simulator, which has no communication, meets its bottleneck bound)
SIMULATED = {
    ("MLP-500-100", 1): (512, 513),
    ("MLP-500-100", 2): (448, 449),
    ("MLP-500-100", 4): (320, 321),
    ("MLP-500-100", 8): (64, 68),
    ("LeNet", 1): (36864, 36864),
    ("LeNet", 2): (18432, 18432),
    ("LeNet", 4): (9216, 9216),
    ("LeNet", 8): (4608, 4608),
    ("CIFAR-VGG17", 1): (65536, 65538),
    ("CIFAR-VGG17", 2): (32768, 32776),
    ("CIFAR-VGG17", 4): (16576, 16582),
    ("CIFAR-VGG17", 8): (8192, 8208),
    ("branchy-conv-concat", 1): (4096, 4097),
    ("pool-stack", 1): (192, 193),
}

#: simulator / analytic throughput at every regular point (measured
#: 1.0026-1.1017), and simulator / analytic latency once the analytic
#: model's pipeline fill is taken off (measured 0.9095-1.0568)
THROUGHPUT_BAND = (1.0, 1.11)
FILLED_LATENCY_BAND = (0.90, 1.06)

#: (throughput, latency) ratios of the points where the simulator is the
#: model that is wrong.  It repeats one sample's greedy schedule at a single
#: offset.  At MLP-500-100 d4 the buffer-conflict rule staggers the second
#: read on ``fc1/reduce0`` duplicate k to cycle 65 + 64k, so every candidate
#: II in {128, 192, 256} collides on exactly one duplicate and the search
#: ends at makespan - 1 (320 of 321); d2 ends the same way (448 of 449).
#: The hardware bound, 2 x 64 cycles at d4, is reachable by a modulo
#: schedule, and it is the one the analytic model prices.
SIMULATOR_MISSES_THE_BOUND = {
    ("MLP-500-100", 2): (0.5745, 0.4994),
    ("MLP-500-100", 4): (0.4022, 0.4166),
}


def _graph(name):
    path = CORPUS_DIR / f"{name}.json"
    if path.exists():
        return build_graph(ModelSpec.from_dict(json.loads(path.read_text(encoding="utf-8"))))
    return build_model(name)


@pytest.fixture(scope="module", params=list(SIMULATED), ids=lambda p: f"{p[0]}-d{p[1]}")
def measured(request):
    """(point, analytic result, simulated run) of one point."""
    name, duplication = request.param
    compiler = FPSACompiler(cache=False)
    result = compiler.compile(_graph(name), duplication_degree=duplication)
    pe = compiler.config.pe
    schedule = reference_schedule(result.coreops, result.mapping.allocation, pe)
    return request.param, result, simulate(schedule, pe.cycle_ns)


class TestResidual:
    def test_the_simulated_pipeline_is_the_recorded_one(self, measured):
        point, _, run = measured
        assert (run.initiation_interval_cycles, run.makespan_cycles) == SIMULATED[point]

    def test_throughput_and_latency(self, measured):
        point, result, run = measured
        report = result.performance
        throughput = run.throughput_samples_per_s / report.throughput_samples_per_s
        latency = run.latency_us / report.latency_us
        if point in SIMULATOR_MISSES_THE_BOUND:
            assert (throughput, latency) == pytest.approx(
                SIMULATOR_MISSES_THE_BOUND[point], abs=1e-4
            )
            return
        low, high = THROUGHPUT_BAND
        assert low <= throughput <= high
        # the latency spread (0.10-0.96) is the fill term of the analytic
        # model: a full VMM plus a hop per pipeline stage, where streaming
        # lets a consumer start one cycle after its producer
        breakdown = report.latency_breakdown
        fill_us = pipeline_depth(result.coreops) * (
            breakdown.computation_ns + breakdown.communication_ns
        ) / 1e3
        low, high = FILLED_LATENCY_BAND
        assert latency < 1.0
        assert low <= run.latency_us / (report.latency_us - fill_us) <= high

    def test_the_throughput_gap_has_two_factors(self, measured):
        """The whole gap is the simulator's II against the allocation's
        bottleneck bound (``max_iterations`` windows), times the analytic
        model's communication pace, which the simulator does not model."""
        _, result, run = measured
        allocation = result.mapping.allocation
        breakdown = result.performance.latency_breakdown
        window = result.mapping.config.pe.sampling_window
        bound = allocation.max_iterations * window / run.initiation_interval_cycles
        pace = max(breakdown.computation_ns, breakdown.communication_ns) / (
            breakdown.computation_ns
        )
        assert allocation.replication == 1
        assert run.throughput_samples_per_s / result.performance.throughput_samples_per_s == (
            pytest.approx(bound * pace, rel=1e-9)
        )


def test_the_reference_stops_before_imagenet(vgg16_coreops, vgg16_allocation, config):
    with pytest.raises(SynthesisError, match=f"> {INSTANCE_LIMIT}"):
        reference_schedule(vgg16_coreops, vgg16_allocation, config.pe)
