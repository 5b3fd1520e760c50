"""Fuzz-campaign driver: generate N specs, run each through the
differential oracle, shrink whatever fails, and emit a JSON report.

The campaign seed defaults from the active Hypothesis profile (the same
``HYPOTHESIS_PROFILE`` knob ``tests/conftest.py`` registers): the
derandomized ``ci`` profile pins seed 0 so a CI fuzz run is reproducible
from the log line alone, while ``dev`` draws a fresh seed per campaign.
"""

from __future__ import annotations

import os
import random
import time
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Callable

from ..wire import WireRecord
from .generate import ModelSpec, generate_spec
from .oracle import CONFIG_GROUPS, SpecCheck, check_spec
from .shrinker import ShrinkResult, shrink

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..arch.params import FPSAConfig

__all__ = [
    "PROFILE_ENV",
    "CampaignFinding",
    "CampaignReport",
    "default_campaign_seed",
    "run_campaign",
]

PROFILE_ENV = "HYPOTHESIS_PROFILE"


def default_campaign_seed() -> int:
    """Campaign seed implied by the Hypothesis profile: the derandomized
    ``ci`` profile (the default) pins 0; anything else draws fresh."""
    profile = os.environ.get(PROFILE_ENV, "ci")
    if profile == "ci":
        return 0
    return random.SystemRandom().randrange(2**32)


@dataclass
class CampaignFinding(WireRecord):
    """One failing spec, with every lattice disagreement it produced and
    (when shrinking ran) its minimal reproducer."""

    spec: ModelSpec
    index: int
    findings: list[dict[str, Any]]
    shrunk: ShrinkResult | None = None

    def to_dict(self) -> dict[str, Any]:
        return {**super().to_dict(), "spec_id": self.spec.spec_id()}


@dataclass
class CampaignReport(WireRecord):
    """Everything one campaign did, JSON-serializable for ``--json``."""

    seed: int
    models: int
    size_class: str | None
    specs: list[str] = field(default_factory=list)
    compiles: int = 0
    configs_diffed: int = 0
    findings: list[CampaignFinding] = field(default_factory=list)
    wall_seconds: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.findings

    def to_dict(self) -> dict[str, Any]:
        return {**super().to_dict(), "ok": self.ok}


def _groups_of(check: SpecCheck) -> tuple[str, ...]:
    """The lattice groups implicated by a failed check (the shrinker
    re-runs only these, which keeps predicate evaluation cheap)."""
    groups = set()
    for finding in check.findings:
        name = finding.config
        if name.startswith("pnr"):
            groups.add("pnr")
        elif name.startswith(("chips", "auto")):
            groups.add("chips")
        elif name in ("warm", "repeat"):
            groups.add(name)
        else:  # pragma: no cover - future config names: re-run everything
            groups.update(CONFIG_GROUPS)
    return tuple(g for g in CONFIG_GROUPS if g in groups)


def _shrink_predicate(
    report: CampaignReport,
    groups: tuple[str, ...],
    config: "FPSAConfig | None",
) -> Callable[[ModelSpec], bool]:
    def still_fails(candidate: ModelSpec) -> bool:
        inner = check_spec(candidate, config=config, subset=groups)
        report.compiles += inner.compiles
        report.configs_diffed += len(inner.configs)
        return not inner.ok

    return still_fails


def run_campaign(
    models: int = 50,
    seed: int | None = None,
    *,
    size_class: str | None = None,
    shrink_failures: bool = False,
    config: "FPSAConfig | None" = None,
    max_shrink_evaluations: int = 60,
    log: Callable[[str], None] | None = None,
) -> CampaignReport:
    """Run one differential-fuzzing campaign.

    Never raises for oracle findings — they land in the report, whose
    ``ok`` flag (and the CLI exit code built on it) carries the verdict.
    """
    if seed is None:
        seed = default_campaign_seed()

    def say(msg: str) -> None:
        if log is not None:
            log(msg)
    report = CampaignReport(seed=seed, models=models, size_class=size_class)
    started = time.perf_counter()
    say(f"fuzz campaign: models={models} seed={seed} "
        f"size_class={size_class or 'mixed'}")
    for index in range(models):
        spec = generate_spec(seed, index, size_class=size_class)
        report.specs.append(spec.spec_id())
        check = check_spec(spec, config=config)
        report.compiles += check.compiles
        report.configs_diffed += len(check.configs)
        if check.ok:
            continue
        say(f"  model {index} ({spec.spec_id()}): "
            f"{len(check.findings)} finding(s)")
        shrunk: ShrinkResult | None = None
        if shrink_failures:
            still_fails = _shrink_predicate(report, _groups_of(check), config)
            shrunk = shrink(
                spec, still_fails, max_evaluations=max_shrink_evaluations
            )
            say(f"    shrunk {len(spec.layers)} -> "
                f"{len(shrunk.spec.layers)} layer(s) "
                f"in {shrunk.evaluations} evaluation(s)")
        report.findings.append(
            CampaignFinding(
                spec=spec,
                index=index,
                findings=[f.to_dict() for f in check.findings],
                shrunk=shrunk,
            )
        )
    report.wall_seconds = time.perf_counter() - started
    say(f"fuzz campaign done: {models} model(s), {report.compiles} compile(s), "
        f"{len(report.findings)} failing spec(s), {report.wall_seconds:.1f}s")
    return report
