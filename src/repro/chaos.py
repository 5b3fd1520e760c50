"""The chaos gate: does the serving runtime survive a seeded fault plan?

``run_chaos`` serves a repeated-model batch workload twice through a
:class:`~repro.service.runtime.ServingRuntime`: once fault-free (the
reference), once under a deterministic seeded fault plan (worker crashes,
a hang, transient IO faults and a corrupted shared-cache entry — see
:mod:`repro.faults`).  The section it returns records availability,
whether the responses stayed bit-identical (seconds-stripped) to the
reference, recovery time after pool breakage, and the retry/displacement
counters.

``gate`` holds that section to three absolute floors — every request
served, every response identical to the reference, the pool broken at
least once — and ``repro chaos`` (see :mod:`repro.cli`) applies it on every
run: exit 0 clean, 1 on any finding.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import random
import sys
import time
from typing import TYPE_CHECKING, Any, Mapping, Sequence

from .core.shared_cache import SHARED_CACHE_ENV
from .errors import InvalidRequestError
from .faults import (
    FAULT_PLAN_ENV,
    KIND_CORRUPT,
    KIND_CRASH,
    KIND_HANG,
    KIND_IO_ERROR,
    SITE_SHARED_CACHE_GET,
    SITE_SHARED_CACHE_PUT,
    SITE_WORKER_COMPILE,
    FaultPlan,
    FaultSpec,
)
from .seeding import derive_seed

if TYPE_CHECKING:  # pragma: no cover - typing only: the CLI parser imports this module
    from .service.schemas import CompileRequest

__all__ = [
    "DEFAULT_CHAOS_MODELS",
    "run_chaos",
    "gate",
    "format_chaos_section",
]

#: models of the chaos workload: the cheap front-end-dominated pair keeps a
#: crash-and-retry round affordable while still spanning two distinct
#: compiles for the fault plan to pick victims from.
DEFAULT_CHAOS_MODELS = ("MLP-500-100", "LeNet")

#: per-request deadline (seconds) and retry budget for retriable faults.
DEADLINE_S = 120.0
MAX_RETRIES = 3


def _chaos_workload(
    models: Sequence[str],
    duplications: Sequence[int],
    copies: int,
    rounds: int,
    seed: int,
) -> tuple[list[CompileRequest], list[list[CompileRequest]]]:
    """The unique requests of a chaos run and its batches, one per round:
    every unique request ``copies`` times, round ``r`` at seed ``seed + r``."""
    from .service import CompileRequest

    unique_requests = [
        CompileRequest(
            model=model,
            duplication_degree=degree,
            seed=seed,
            deadline_s=DEADLINE_S,
            max_retries=MAX_RETRIES,
        )
        for model in models
        for degree in duplications
    ]
    batches = [
        [
            dataclasses.replace(request, seed=seed + r)
            for request in unique_requests
            for _ in range(copies)
        ]
        for r in range(rounds)
    ]
    return unique_requests, batches


def _chaos_plan(seed: int, requests: Sequence[CompileRequest]) -> FaultPlan:
    """The deterministic fault plan of one chaos run.

    Victims are drawn from the unique requests by a generator seeded off
    the master seed (same seed -> same plan -> same failures, replayable
    byte for byte): two worker crashes and one transient worker IO fault
    on distinct requests, one short worker hang on a fourth, plus
    transient-write, corrupt-write and transient-read faults on the
    shared stage cache.  Every worker-compile fault matches ``attempt 0``
    only, so it is self-limiting: the supervised retry of the same
    request runs clean.

    The cache faults are aimed at operations a worker makes: its first
    shared put fails, its second is corrupted (a spec that fires takes
    the occurrence, so the corrupt spec counts from the second put on),
    and its second shared get fails.  A worker of the chaos workload puts
    one entry per model it synthesizes first, so a later put may never
    come.
    """
    rng = random.Random(derive_seed(seed, "chaos-plan"))
    victims = list(requests)
    rng.shuffle(victims)

    def compile_fault(index: int, kind: str, seconds: float = 0.1) -> FaultSpec:
        victim = victims[index % len(victims)]
        return FaultSpec(
            site=SITE_WORKER_COMPILE,
            kind=kind,
            seconds=seconds,
            match={
                "model": victim.model,
                "duplication_degree": victim.duplication_degree,
                "attempt": 0,
            },
        )

    return FaultPlan(
        faults=(
            compile_fault(0, KIND_CRASH),
            compile_fault(1, KIND_CRASH),
            compile_fault(2, KIND_IO_ERROR),
            compile_fault(3, KIND_HANG, seconds=0.25),
            FaultSpec(site=SITE_SHARED_CACHE_PUT, kind=KIND_IO_ERROR, at=0),
            FaultSpec(site=SITE_SHARED_CACHE_PUT, kind=KIND_CORRUPT, at=0),
            FaultSpec(site=SITE_SHARED_CACHE_GET, kind=KIND_IO_ERROR, at=1),
        ),
        seed=seed,
    )


def run_chaos(
    models: Sequence[str] = DEFAULT_CHAOS_MODELS,
    duplications: Sequence[int] = (1, 2),
    copies: int = 2,
    rounds: int = 2,
    workers: int = 2,
    seed: int = 0,
    progress=None,
) -> dict[str, Any]:
    """Measure the serving runtime's fault tolerance under a seeded plan.

    The workload (every (model, duplication) pair, ``copies`` times, served
    in ``rounds`` sequential batches) runs twice through a
    :class:`ServingRuntime`: once fault-free (the reference), once with the
    deterministic :func:`_chaos_plan` installed via the fault-plan
    environment variable so every worker inherits it.  The section records
    **availability** (served-ok over total — the floor is 1.0: with
    supervision and retries, the plan must not cost a single response),
    whether the chaos responses stayed **bit-identical** (seconds-stripped
    summaries) to the reference, pool-health counters (breakages,
    respawns, recovery seconds), retry/displacement counters, and the
    degraded cache writes.

    ``rounds >= 2`` matters for coverage: when the first crash breaks the
    pool, the second crash victim is usually *displaced* (its in-flight
    attempt fails with the pool) and retried at attempt 1, where the
    attempt-0 crash spec no longer matches — the next round resubmits it
    at attempt 0 on fresh workers, so the plan reliably kills at least
    two workers across the run.  Round ``r`` compiles with seed
    ``seed + r`` (the plan matches on model, duplication and attempt, not
    on seed): an identical request would be answered from round 0's
    concluded job and never meet a worker.
    """
    if copies < 1:
        raise InvalidRequestError("copies must be >= 1")
    if rounds < 1:
        raise InvalidRequestError("rounds must be >= 1")
    # insulate from the user environment: an inherited fault plan would
    # poison the reference run, and a pre-warmed shared cache would
    # change which injected cache faults ever fire
    env_saved = {
        var: os.environ.pop(var, None)
        for var in (SHARED_CACHE_ENV, FAULT_PLAN_ENV)
    }
    try:
        return _run_chaos(
            models, duplications, copies, rounds, workers, seed, progress
        )
    finally:
        for var, value in env_saved.items():
            if value is not None:
                os.environ[var] = value


def _run_chaos(
    models: Sequence[str],
    duplications: Sequence[int],
    copies: int,
    rounds: int,
    workers: int,
    seed: int,
    progress,
) -> dict[str, Any]:
    from .fuzz.oracle import strip_seconds
    from .service import ServingRuntime

    unique_requests, batches = _chaos_workload(
        models, duplications, copies, rounds, seed
    )
    total_requests = len(batches[0]) * rounds

    if progress is not None:
        progress(
            f"chaos bench: fault-free reference "
            f"({rounds} x {len(batches[0])} requests) ..."
        )
    reference: list = []
    with ServingRuntime(max_workers=workers) as runtime:
        for batch in batches:
            reference.extend(runtime.serve_batch(batch))
    for response in reference:
        response.raise_for_status()

    plan = _chaos_plan(seed, unique_requests)
    if progress is not None:
        progress(
            f"chaos bench: same workload under {len(plan.faults)} seeded "
            f"faults ..."
        )
    # the environment route reaches every (lazily forked and re-forked)
    # worker, including the ones a pool rebuild spawns mid-run
    os.environ[FAULT_PLAN_ENV] = plan.to_json()
    try:
        chaos: list = []
        chaos_start = time.perf_counter()
        with ServingRuntime(max_workers=workers) as runtime:
            for batch in batches:
                chaos.extend(runtime.serve_batch(batch))
            stats = runtime.stats()
        chaos_seconds = time.perf_counter() - chaos_start
    finally:
        del os.environ[FAULT_PLAN_ENV]

    def quality(response) -> dict[str, Any] | None:
        # a request the plan cost carries no summary; the availability
        # floor reports it, the comparison must not crash on it
        summary = response.summary
        return strip_seconds(summary.to_dict() if summary is not None else None)

    ok = sum(1 for response in chaos if response.ok)
    summaries_identical = all(
        quality(a) == quality(b) for a, b in zip(reference, chaos, strict=True)
    )
    write_errors = sum(
        response.timings.write_errors for response in chaos if response.timings
    )
    health = stats.get("pool_health") or {}
    return {
        "models": list(models),
        "duplications": list(duplications),
        "copies": copies,
        "rounds": rounds,
        "workers": workers,
        "seed": seed,
        "deadline_s": DEADLINE_S,
        "max_retries": MAX_RETRIES,
        "fault_plan": plan.to_dict(),
        "total_requests": total_requests,
        "ok_requests": ok,
        "availability": ok / total_requests if total_requests else 0.0,
        "summaries_identical": summaries_identical,
        "retried": stats["retried"],
        "displaced": stats["displaced"],
        "rejected": stats["rejected"],
        "deadline_expired": stats["deadline_expired"],
        "broken_pool_events": int(health.get("broken_pool_events", 0)),
        "respawns": int(health.get("respawns", 0)),
        "last_recovery_seconds": float(health.get("last_recovery_seconds", 0.0)),
        "total_recovery_seconds": float(
            health.get("total_recovery_seconds", 0.0)
        ),
        "cache_write_errors": write_errors,
        "chaos_seconds": chaos_seconds,
    }


def format_chaos_section(chaos: Mapping[str, Any]) -> str:
    """Human-readable summary of one chaos section."""
    lines = [
        f"chaos bench: {chaos['total_requests']} requests "
        f"({chaos['rounds']} rounds x {chaos['copies']} copies), "
        f"{chaos['workers']} workers, "
        f"{len((chaos.get('fault_plan') or {}).get('faults', ()))} seeded "
        f"faults (seed {chaos['seed']})",
        f"  availability: {chaos['ok_requests']}/{chaos['total_requests']} "
        f"({chaos['availability']:.0%}) in {chaos['chaos_seconds']:.2f}s",
        f"  pool: {chaos['broken_pool_events']} breakage(s), "
        f"{chaos['respawns']} respawn(s), last recovery "
        f"{chaos['last_recovery_seconds'] * 1e3:.1f} ms",
        f"  retries: {chaos['retried']} retried, {chaos['displaced']} "
        f"displaced, {chaos['deadline_expired']} deadline-expired, "
        f"{chaos['cache_write_errors']} degraded cache write(s)",
        f"  responses identical to fault-free reference: "
        f"{'yes' if chaos['summaries_identical'] else 'NO'}",
    ]
    return "\n".join(lines)


def gate(chaos: Mapping[str, Any]) -> list[str]:
    """What a chaos section fails on; empty when clean.

    The floors are absolute.  Availability under the seeded fault plan
    must be 1.0: with supervision, retries and deadlines in place, the plan
    must not cost a single response.  The chaos responses must equal the
    fault-free reference's seconds-stripped summaries (a retry may change
    *when* work happens, never *what* it computes).  And the plan must
    have broken the pool: ``broken_pool_events`` of 0 means the run proved
    nothing — the harness, not the runtime, regressed.
    """
    findings: list[str] = []
    availability = float(chaos.get("availability", 0.0))
    if availability < 1.0:
        findings.append(
            f"availability {availability:.1%} under the seeded fault plan "
            f"is below the 100% floor ({chaos.get('ok_requests', 0)}/"
            f"{chaos.get('total_requests', 0)} served)"
        )
    if chaos.get("summaries_identical") is False:
        findings.append(
            "responses under the fault plan differ from the fault-free "
            "reference's result summaries (retries must be bit-identical)"
        )
    if int(chaos.get("broken_pool_events", 0)) < 1:
        findings.append(
            "the fault plan never broke the worker pool "
            "(0 broken-pool events) — the run exercised nothing"
        )
    return findings


def add_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags of ``repro chaos``."""
    parser.add_argument(
        "--seed", type=int, default=0,
        help="master seed of the compiles and the fault plan (default: 0)",
    )
    parser.add_argument(
        "--json", action="store_true",
        help="emit the section (fault plan included) as JSON on stdout",
    )


def run_from_args(args: argparse.Namespace) -> int:
    """Run the workload, print the section, gate it; the exit code."""
    progress = None if args.json else lambda msg: print(msg, file=sys.stderr)
    section = run_chaos(seed=args.seed, progress=progress)
    if args.json:
        print(json.dumps(section, indent=2, sort_keys=True))
    else:
        print(format_chaos_section(section))
    findings = gate(section)
    for finding in findings:
        print(f"chaos: {finding}", file=sys.stderr)
    return 1 if findings else 0

