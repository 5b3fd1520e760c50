"""The spatial-to-temporal mapper: core-op graph -> function-block netlist.

The mapper performs the two sub-steps of Section 5.2:

1. **Resource allocation** — group core-ops by shared weights, give every
   group at least one PE per crossbar tile, and duplicate the
   heavily-reused groups to balance the pipeline stages
   (:mod:`repro.mapper.allocation`).
2. **Scheduling** — decide where streaming is impossible under the
   RC / NBD / BD / BC / SW constraints and buffer those edges in SMBs
   (:func:`~repro.mapper.netlist.smbs_per_edge` counts them per group
   edge), and generate the control logic (:mod:`repro.mapper.control`).

The result is a :class:`MappingResult` holding the allocation, the control
plan and the function-block netlist those determine — built when something
first reads it.  The paper's instance-level greedy scheduler (Algorithm 1)
and a cycle-level simulator of its schedules are kept under ``tests/perf/``
as the reference the analytic performance model is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..arch.params import FPSAConfig
from ..errors import CapacityError
from ..synthesizer.coreop import CoreOpGraph
from .allocation import AllocationResult, allocate_request
from .control import ControlPlan, plan_control
from .netlist import FunctionBlockNetlist, build_netlist, smbs_per_edge

__all__ = ["MappingResult", "SpatialTemporalMapper"]


@dataclass
class MappingResult:
    """Everything the mapper produces for one model.

    ``netlist`` is derived from the fields below on first read (by P&R and
    the verifier) and is not pickled: summaries, sweeps, the stage stores
    and an unrouted bitstream need only :meth:`block_counts` and the name
    batches of :func:`~repro.mapper.netlist.datapath_batches`.
    """

    coreops: CoreOpGraph
    allocation: AllocationResult
    control: ControlPlan
    config: FPSAConfig

    @cached_property
    def smbs_per_edge(self) -> tuple[int, ...]:
        """SMBs each of ``coreops.edges()`` needs in one replica, in edge
        order (:func:`~repro.mapper.netlist.smbs_per_edge`): the mapper's
        count for the control plan, read by every netlist enumeration.  Not
        pickled: a mapping loaded from a cache counts again on first read."""
        return tuple(smbs_per_edge(self.coreops, self.allocation, self.config))

    @cached_property
    def netlist(self) -> FunctionBlockNetlist:
        return build_netlist(
            self.coreops,
            self.allocation,
            self.config,
            self.control.clbs_needed,
            smbs=self.smbs_per_edge,
        )

    def __getstate__(self) -> dict:
        state = dict(vars(self))
        state.pop("netlist", None)
        state.pop("smbs_per_edge", None)
        return state

    def block_counts(self) -> dict[str, int]:
        """The netlist's ``n_pe`` / ``n_smb`` / ``n_clb`` without building
        it: the control plan holds one window counter per PE, one address
        counter per SMB, and the CLB count the netlist instantiates."""
        return {
            "n_pe": self.control.window_counters,
            "n_smb": self.control.buffer_counters,
            "n_clb": self.control.clbs_needed,
        }

    @property
    def model(self) -> str:
        return self.coreops.name

    @property
    def duplication_degree(self) -> int:
        return self.allocation.duplication_degree

    def chip_area_mm2(self, config: FPSAConfig | None = None) -> float:
        config = config if config is not None else self.config
        return config.chip_area_mm2(**self.block_counts())

    def summary(self) -> str:
        counts = self.block_counts()
        return "\n".join([
            f"mapping of {self.model!r} (duplication degree {self.duplication_degree})",
            f"  PEs: {counts['n_pe']}  SMBs: {counts['n_smb']}  CLBs: {counts['n_clb']}",
            f"  bottleneck iterations: {self.allocation.max_iterations}",
            f"  temporal utilization: {self.allocation.temporal_utilization():.3f}",
        ])


class SpatialTemporalMapper:
    """Map a core-op graph onto FPSA function blocks."""

    def __init__(self, config: FPSAConfig | None = None):
        self.config = config if config is not None else FPSAConfig()

    def map(
        self,
        coreops: CoreOpGraph,
        duplication_degree: int = 1,
        pe_budget: int | None = None,
        target_iterations: int | None = None,
        replication: int | None = None,
        max_pes: int | None = None,
    ) -> MappingResult:
        """Map ``coreops`` onto function blocks.

        Parameters
        ----------
        duplication_degree:
            Model duplication degree (ignored when ``pe_budget`` is given).
        pe_budget:
            When set, pick the largest duplication degree that fits the
            budget instead of using ``duplication_degree``.
        target_iterations / replication:
            Override the bottleneck-derived pipeline pace (set by the
            multi-chip backend so every shard matches the whole-model
            allocation; see :func:`repro.mapper.allocation.allocate`).
        max_pes:
            Pre-flight capacity check: raise a
            :class:`~repro.errors.CapacityError` (with required-vs-available
            counts) when the allocation exceeds this many PEs, *before* any
            netlist is built or P&R annealing starts.
        """
        allocation = allocate_request(
            coreops,
            duplication_degree,
            self.config.pe,
            pe_budget,
            target_iterations=target_iterations,
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

        # the control plan reads only the datapath's PE and SMB counts
        smbs = tuple(smbs_per_edge(coreops, allocation, self.config))
        n_smb = allocation.replication * sum(smbs)
        control = plan_control(allocation, allocation.total_pes, n_smb, self.config)
        mapping = MappingResult(
            coreops=coreops, allocation=allocation, control=control, config=self.config
        )
        vars(mapping)["smbs_per_edge"] = smbs  # the count the control plan was made from
        return mapping
