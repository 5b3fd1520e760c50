"""Deploy a user-defined CNN through the complete detailed flow.

This example exercises every layer of the system stack on a custom network
built with the public :class:`~repro.graph.GraphBuilder` API:

1. neural synthesis to a core-op graph,
2. spatial-to-temporal mapping (allocation, SMB buffers, control plan),
3. simulated-annealing placement and PathFinder routing on the island-style
   fabric (the step mrVPR performs in the paper),
4. the analytic performance report and its utilization bounds.

Run with::

    python examples/custom_network_pnr.py
"""

from __future__ import annotations

from repro.core.compiler import FPSACompiler
from repro.graph import GraphBuilder


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
    print(f"mean routed path: {pnr.mean_route_segments:.1f} segments")
    print(f"communication critical path: {pnr.critical_path_ns:.3f} ns "
          f"({pnr.timing.critical_net})")
    print(f"spike-transfer cycle achievable on this fabric: "
          f"{pnr.timing.spike_cycle_ns(compiler.config.pe.cycle_ns):.3f} ns")


if __name__ == "__main__":
    main()
