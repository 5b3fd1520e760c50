"""Deploy a user-defined CNN through the complete detailed flow.

This example exercises every layer of the system stack on a custom network
built with the public :class:`~repro.graph.GraphBuilder` API:

1. neural synthesis to a core-op graph,
2. spatial-to-temporal mapping (allocation, SMB buffers, control plan),
3. simulated-annealing placement and PathFinder routing on the island-style
   fabric (the step mrVPR performs in the paper),
4. the analytic performance report and its utilization bounds, and the
   analytic model's mean hop beside the one the router measured.

Run with::

    python examples/custom_network_pnr.py
"""

from __future__ import annotations

from repro.core.compiler import FPSACompiler
from repro.graph import GraphBuilder
from repro.perf.analytic import estimate_block_counts
from repro.perf.comm import ReconfigurableRoutingComm, mean_route_segments


def build_custom_cnn():
    """A small CIFAR-style CNN with a residual connection."""
    builder = GraphBuilder("custom-cnn", input_shape=(3, 32, 32))
    builder.conv(16, 3, padding=1, name="stem")
    trunk = builder.checkpoint()
    builder.conv(16, 3, padding=1, relu=False, name="res_branch", from_=trunk)
    builder.add(builder.current, trunk, name="res_join")
    builder.maxpool(2, name="pool1")
    builder.conv(32, 3, padding=1, name="conv2")
    builder.maxpool(2, name="pool2")
    builder.flatten().dense(64, relu=True, name="fc1").dense(10, name="fc2").softmax()
    return builder.build()


def main() -> None:
    graph = build_custom_cnn()
    print(graph.summary())
    print()

    compiler = FPSACompiler()
    result = compiler.compile(
        graph,
        duplication_degree=4,
        run_pnr=True,
        pnr_channel_width=32,
    )

    print(result.summary())
    print()

    print("core-op graph")
    print(result.coreops.summary())
    print()

    pnr = result.pnr
    print(f"fabric: {pnr.fabric.width} x {pnr.fabric.height} sites, "
          f"channel width {pnr.channel_width}")
    print(f"total wirelength: {pnr.total_wirelength} segments")
    print(f"communication critical path: {pnr.critical_path_ns:.3f} ns "
          f"({pnr.timing.critical_net})")

    # the analytic model's hop (from the block total it prices) against
    # the routed one, both priced by the model's routing-fabric comm
    mapping = result.mapping
    blocks = estimate_block_counts(
        result.coreops, mapping.allocation, compiler.config,
        n_smb=mapping.block_counts()["n_smb"],
    ).total
    estimated = mean_route_segments(blocks)
    comm = ReconfigurableRoutingComm(compiler.config)
    print(f"mean hop: {estimated} segments estimated ({blocks} blocks), "
          f"{pnr.mean_route_segments:.2f} routed")
    print(f"spike-train latency at the estimated hop: "
          f"{comm.spike_train_comm_ns(estimated):.1f} ns")
    print(f"spike-train latency at the routed hop: "
          f"{comm.spike_train_comm_ns(pnr.mean_route_segments):.1f} ns")


if __name__ == "__main__":
    main()
