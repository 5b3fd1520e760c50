"""Multi-chip partitioned compilation.

A single FPSA die holds a bounded PE grid
(:class:`repro.arch.params.InterChipParams.max_pes_per_chip`); models that
exceed it are sharded across several chips:

* :mod:`repro.partition.partitioner` — a weight-group-aware min-cut
  partitioner over the core-op graph with per-chip capacity constraints
  and cut-edge accounting;
* :mod:`repro.partition.passes` — the ``partition`` compilation pass
  (between ``synthesis`` and ``mapping``);
* :mod:`repro.partition.backend` — the per-chip parallel backend: each
  shard runs ``mapping``/``perf``/``bounds``(/``pnr``) independently
  through the batch process pool and the stage cache, and the per-shard
  reports are recombined under the inter-chip link model
  (:class:`repro.perf.comm.InterChipLinkModel`).
"""

from .. import lazy_exports

__getattr__, __dir__ = lazy_exports(__name__, {
    ".backend": ("ShardCompileResult", "compile_shards"),
    ".partitioner": ("partition_coreops",),
    ".plan": ("CutEdge", "PartitionResult", "Shard"),
})

__all__ = [
    "CutEdge",
    "PartitionResult",
    "Shard",
    "ShardCompileResult",
    "compile_shards",
    "partition_coreops",
]
