"""Tests of the control-logic planner."""

from repro.mapper.allocation import allocate
from repro.mapper.control import plan_control
from repro.mapper.netlist import build_netlist


def _plan(coreops, allocation, config):
    """The plan of a built netlist's own PE and SMB counts."""
    netlist = build_netlist(coreops, allocation, config)
    return netlist, plan_control(allocation, netlist.n_pe, netlist.n_smb, config)


class TestPlanControl:
    def test_window_counter_per_pe(self, lenet_coreops, config):
        allocation = allocate(lenet_coreops, 2, config.pe)
        netlist, plan = _plan(lenet_coreops, allocation, config)
        assert plan.window_counters == netlist.n_pe

    def test_iteration_counters_only_for_multi_iteration_groups(self, mlp_coreops, config):
        # at maximum duplication every group runs a single iteration
        allocation = allocate(mlp_coreops, mlp_coreops.max_reuse_degree, config.pe)
        _, plan = _plan(mlp_coreops, allocation, config)
        assert plan.iteration_counters == 0

    def test_buffer_counters_match_smbs(self, lenet_coreops, config):
        allocation = allocate(lenet_coreops, 2, config.pe)
        netlist, plan = _plan(lenet_coreops, allocation, config)
        assert plan.buffer_counters == netlist.n_smb

    def test_clbs_cover_luts(self, lenet_coreops, config):
        allocation = allocate(lenet_coreops, 2, config.pe)
        _, plan = _plan(lenet_coreops, allocation, config)
        assert plan.clbs_needed * config.clb.luts_per_clb >= plan.luts_total
        assert plan.luts_total > 0

    def test_counters_total(self, lenet_coreops, config):
        allocation = allocate(lenet_coreops, 2, config.pe)
        _, plan = _plan(lenet_coreops, allocation, config)
        assert plan.counters_total == (
            plan.window_counters + plan.iteration_counters + plan.buffer_counters
        )

    def test_more_duplication_means_more_control(self, lenet_coreops, config):
        _, small = _plan(lenet_coreops, allocate(lenet_coreops, 1, config.pe), config)
        _, big = _plan(lenet_coreops, allocate(lenet_coreops, 8, config.pe), config)
        assert big.luts_total > small.luts_total

    def test_plan_reads_two_counts_not_a_netlist(self, lenet_coreops, config):
        # nothing but the two integers reaches the planner: the mapper
        # sizes the control plane before any netlist exists
        allocation = allocate(lenet_coreops, 2, config.pe)
        plan = plan_control(allocation, 10, 3, config)
        assert (plan.window_counters, plan.buffer_counters) == (10, 3)
