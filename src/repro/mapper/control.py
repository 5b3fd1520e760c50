"""Control-logic planning: sizing the CLBs that sequence the execution.

Once the scheduling is known, every PE needs a small state machine that
(1) counts the sampling-window cycles and issues the neuron reset pulse,
(2) counts its reuse iterations so the right input slice is selected, and
every SMB needs an address counter that steps through the buffered values.
The control planner sizes these sequencers in LUTs and packs them into
CLBs.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ..arch.clb import IterationCounter
from ..arch.params import CLBParams, FPSAConfig
from .allocation import AllocationResult

__all__ = ["ControlPlan", "plan_control"]


@dataclass(frozen=True)
class ControlPlan:
    """The sized control plane of one mapped model."""

    model: str
    window_counters: int
    iteration_counters: int
    buffer_counters: int
    luts_total: int
    clbs_needed: int

    @property
    def counters_total(self) -> int:
        return self.window_counters + self.iteration_counters + self.buffer_counters


def _counter_luts(period: int, clb: CLBParams) -> int:
    return _lut_cost(max(2, period), clb.lut_inputs)


@lru_cache(maxsize=4096)
def _lut_cost(period: int, lut_inputs: int) -> int:
    """LUTs of one counter: every group of a model iterating ``period``
    times, at every duplication, costs the same."""
    return IterationCounter(period).lut_cost(lut_inputs)


def plan_control(
    allocation: AllocationResult,
    n_pe: int,
    n_smb: int,
    config: FPSAConfig | None = None,
) -> ControlPlan:
    """Size the control plane of an allocated model from its datapath's PE
    and SMB counts."""
    config = config if config is not None else FPSAConfig()
    clb = config.clb
    window = config.pe.sampling_window

    luts = 0

    # one sampling-window counter per PE (reset pulse generation)
    window_counters = n_pe
    luts += window_counters * _counter_luts(window, clb)

    # one iteration counter per PE whose group executes more than once
    iteration_counters = 0
    for alloc in allocation.allocations.values():
        if alloc.iterations > 1:
            iteration_counters += alloc.pes
            luts += alloc.pes * _counter_luts(alloc.iterations, clb)

    # one address counter per SMB
    value_bits = config.pe.io_bits
    capacity = config.smb.values_capacity(value_bits)
    buffer_counters = n_smb
    luts += buffer_counters * _counter_luts(capacity, clb)

    clbs_needed = clb.blocks_for_luts(luts)
    return ControlPlan(
        model=allocation.model,
        window_counters=window_counters,
        iteration_counters=iteration_counters,
        buffer_counters=buffer_counters,
        luts_total=luts,
        clbs_needed=clbs_needed,
    )
