"""The end-to-end FPSA compiler: the library's primary public entry point.

``FPSACompiler`` is a thin façade over the pass-based pipeline
(:mod:`repro.core.pipeline`).  The full software stack of Figure 5:

    computational graph
      -> neural synthesizer        (core-op graph)
      -> spatial-to-temporal mapper (function-block netlist)
      -> placement & routing        (chip configuration, optional)
      -> performance model          (throughput / latency / area / bounds)

is expressed as the ``synthesis``, ``mapping``, ``perf``, ``bounds``,
``pnr`` and ``bitstream`` passes, run by a
:class:`~repro.core.pipeline.PassManager` over a shared
:class:`~repro.core.pipeline.CompileContext`, with per-pass wall-clock
timings and a content-addressed stage cache that lets repeated sweeps skip
synthesis and mapping entirely.
"""

from __future__ import annotations

import dataclasses
from typing import Any, Sequence

from ..arch.params import FPSAConfig
from ..errors import InvalidRequestError
from ..graph.graph import ComputationalGraph
from ..synthesizer.synthesizer import SynthesisOptions
from .cache import StageCache, default_cache
from .pipeline import (
    PUBLIC_KNOBS,
    CompileContext,
    CompileOptions,
    PassManager,
    PassTiming,
    default_pass_names,
    resolve_passes,
)
from .result import DeploymentResult

__all__ = ["FPSACompiler"]

_KNOB_NAMES = frozenset(f.name for f in PUBLIC_KNOBS)


class FPSACompiler:
    """Deploy computational graphs onto the FPSA architecture.

    Parameters
    ----------
    config:
        Hardware configuration (defaults to the paper's 45 nm parameters).
    synthesis_options:
        Options forwarded to the neural synthesizer.
    cache:
        Stage cache for the pipeline: ``None`` (the default) shares the
        process-wide cache, a :class:`~repro.core.cache.StageCache` uses a
        private one, and ``False`` disables caching for this compiler.
    """

    def __init__(
        self,
        config: FPSAConfig | None = None,
        synthesis_options: SynthesisOptions | None = None,
        cache: StageCache | bool | None = None,
    ):
        self.config = config if config is not None else FPSAConfig()
        self.synthesis_options = (
            synthesis_options
            if synthesis_options is not None
            else SynthesisOptions.from_pe(self.config.pe)
        )
        if cache is None or cache is True:
            self.cache: StageCache | None = default_cache()
        elif cache is False:
            self.cache = None
        else:
            self.cache = cache

    def compile(
        self,
        graph: ComputationalGraph,
        *,
        passes: Sequence[str] | None = None,
        use_cache: bool = True,
        **knobs: Any,
    ) -> DeploymentResult:
        """Compile a model and evaluate the resulting deployment.

        Parameters
        ----------
        graph:
            The model's computational graph (see :mod:`repro.models`).
        passes:
            Explicit pass-name list to run instead of the default pipeline,
            e.g. ``("synthesis", "mapping")`` for a front-end-only compile.
            Artifacts of omitted passes stay ``None`` on the result.
        use_cache:
            Set ``False`` to bypass the stage cache for this compilation.
        knobs:
            The public fields of
            :class:`~repro.core.pipeline.CompileOptions` — the one table of
            compile knobs, their defaults and legal values (printed in
            ``ARCHITECTURE.md``, "Compile options").  An unknown name or an
            illegal value raises :class:`~repro.errors.InvalidRequestError`.

        Notes
        -----
        With caching enabled, repeated compiles may share artifact objects
        by reference (a deep copy would cost more than recompiling for
        large models).  Treat the result's artifacts as read-only, or
        compile with ``cache=False`` / ``use_cache=False`` before mutating
        them.
        """
        unknown = sorted(set(knobs) - _KNOB_NAMES)
        if unknown:
            known = sorted(_KNOB_NAMES)
            raise InvalidRequestError(
                f"unknown compile option(s) {unknown}; known: {known} "
                f"(plus 'passes' and 'use_cache')",
                details={"unknown": unknown, "known": known},
            )
        options = CompileOptions(**knobs)
        if options.partitioned:
            if passes is not None:
                raise InvalidRequestError(
                    "an explicit pass list cannot be combined with num_chips; "
                    "partitioned compilation orchestrates the backend passes "
                    "per shard itself",
                    details={"num_chips": repr(options.num_chips), "passes": list(passes)},
                )
            return self._compile_partitioned(graph, options, use_cache)
        names = list(passes) if passes is not None else default_pass_names(options)
        manager = PassManager(resolve_passes(names))
        ctx = CompileContext(
            graph=graph,
            config=self.config,
            options=options,
            synthesis_options=self.synthesis_options,
        )
        timings = manager.run(ctx, cache=self.cache if use_cache else None)
        return DeploymentResult(
            graph=graph,
            coreops=ctx.coreops,
            mapping=ctx.mapping,
            performance=ctx.performance,
            bounds=ctx.bounds,
            pnr=ctx.pnr,
            bitstream=ctx.bitstream,
            timings=timings,
            cache_stats=ctx.cache_stats,
        )

    def _compile_partitioned(
        self, graph: ComputationalGraph, options: CompileOptions, use_cache: bool
    ) -> DeploymentResult:
        """The multi-chip flow: front-end once, backend once per shard.

        ``synthesis`` and ``partition`` run through a normal pass manager
        (both stage-cached).  The remaining passes then run per shard via
        :func:`repro.partition.backend.compile_shards` — each shard is an
        independent backend compile with its own cache keys, optionally in
        parallel worker processes.  A single-shard plan short-circuits to
        the plain backend over the original context, which keeps 1-chip
        compiles bit-identical to the unpartitioned pipeline.
        """
        from ..partition.backend import (
            backend_pass_names,
            combine_bounds,
            combine_performance,
            compile_shards,
        )

        cache = self.cache if use_cache else None
        names = default_pass_names(options)
        front = [n for n in names if n in ("synthesis", "partition")]
        backend = backend_pass_names(names)

        ctx = CompileContext(
            graph=graph,
            config=self.config,
            options=options,
            synthesis_options=self.synthesis_options,
        )
        timings = PassManager(resolve_passes(front)).run(ctx, cache=cache)
        plan = ctx.partition

        if plan.num_chips == 1:
            # identity partition: run the backend over the original context
            # so every artifact (and stage-cache key) matches the
            # unpartitioned pipeline exactly.  Clearing the partition-flow
            # fields makes the mapping fingerprint equal to the classic
            # flow's, so the two alias each other's cache entries; the
            # capacity pre-flight already happened in the partition pass.
            ctx.options = dataclasses.replace(
                options, num_chips=None, shard_jobs=None
            )
            timings += PassManager(
                resolve_passes(backend), preloaded=("coreops",)
            ).run(ctx, cache=cache)
            return DeploymentResult(
                graph=graph,
                coreops=ctx.coreops,
                mapping=ctx.mapping,
                performance=ctx.performance,
                bounds=ctx.bounds,
                pnr=ctx.pnr,
                bitstream=ctx.bitstream,
                partition=plan,
                timings=timings,
                cache_stats=ctx.cache_stats,
            )

        useful_ops = graph.total_ops()
        shard_results = compile_shards(
            plan,
            config=self.config,
            options=options,
            pass_names=backend,
            useful_ops_per_sample=useful_ops,
            jobs=options.shard_jobs if options.shard_jobs is not None else 1,
            cache=cache,
        )
        cache_stats = ctx.cache_stats
        for result in shard_results:
            for t in result.timings or ():
                timings.append(
                    PassTiming(
                        name=f"{t.name}@chip{result.index}",
                        seconds=t.seconds,
                        cached=t.cached,
                        provides=t.provides,
                    )
                )
            if cache_stats is not None:
                cache_stats.merge(result.cache_stats)
        return DeploymentResult(
            graph=graph,
            coreops=ctx.coreops,
            performance=combine_performance(
                plan, shard_results, self.config, useful_ops
            ),
            bounds=combine_bounds(plan, shard_results),
            partition=plan,
            shard_results=shard_results,
            timings=timings,
            cache_stats=cache_stats,
        )
