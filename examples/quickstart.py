"""Quickstart: deploy a benchmark network onto FPSA in a few lines.

Run with::

    python examples/quickstart.py

The example deploys LeNet with a 4x duplication degree, prints the
resulting throughput, latency, area, utilization bounds and function-block
mix, then scales the duplication degree and serves the same compile as a
wire-level request.
"""

from __future__ import annotations

import repro


def main() -> None:
    print("FPSA quickstart: deploying LeNet")
    print("=" * 60)

    result = repro.deploy_model("LeNet", duplication_degree=4)

    print(result.summary())
    print()

    blocks = result.mapping.block_counts()
    print(f"function blocks: {blocks['n_pe']} PEs, {blocks['n_smb']} SMBs "
          f"(buffers where streaming is impossible), {blocks['n_clb']} CLBs")
    print()

    print("scaling up: the same network at higher duplication degrees")
    for duplication in (1, 4, 16, 64):
        scaled = repro.deploy_model("LeNet", duplication_degree=duplication)
        print(
            f"  {duplication:>3}x duplication: "
            f"{scaled.throughput_samples_per_s:>12,.0f} samples/s on "
            f"{scaled.area_mm2:6.2f} mm^2 "
            f"({scaled.performance.computational_density_ops_per_mm2 / 1e12:.2f} TOPS/mm^2)"
        )
    print()

    print("service layer: the same compile as a wire-level request/response")
    client = repro.FPSAClient()
    response = client.compile(
        repro.CompileRequest(model="LeNet", duplication_degree=4)
    )
    rebuilt = repro.CompileResponse.from_json(response.to_json())
    assert rebuilt == response, "wire round trip must be lossless"
    print(
        f"  status: {response.status}   "
        f"throughput: {response.summary.performance['throughput_samples_per_s']:,.0f} samples/s   "
        f"stage cache: {response.timings.cache_hits} hit(s), "
        f"{response.timings.cache_misses} miss(es)"
    )
    failed = client.compile(repro.CompileRequest(model="LeNet", pe_budget=1))
    print(f"  a failed compile surfaces a typed payload: [{failed.error.code}] "
          f"{failed.error.message}")


if __name__ == "__main__":
    main()
