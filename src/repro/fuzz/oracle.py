"""The differential oracle: one spec, compiled across a configuration
lattice, must always tell the same story.

The compiler stack promises a family of equivalences (established across
PRs 3-7) that this module sweeps over arbitrary generated models:

==================  ====================================================
configuration axis  contract
==================  ====================================================
repeated runs       same seed => bit-identical ``ResultSummary``
warm cache          cache-hit artifacts == freshly computed ones
P&R                 same seed => the same routing
``num_chips=1``     the 1-chip partition is the identity (modulo the
                    ``partition`` summary section it adds)
``num_chips=auto``  deterministic; succeeds whenever the classic flow
                    does, and turns the over-capacity ``CapacityError``
                    of ``num_chips=1`` into a sharded compile
==================  ====================================================

Every compile runs with IR verification on (the same checks
``REPRO_VERIFY=1`` enables globally), and the final artifacts are run
through :func:`repro.analysis.verify.verify_artifacts` once more as an
independent second oracle.  Failures surface as typed errors; for a
deterministic configuration pair the *errors* must match too
(code/type/message equivalence), so a config that fails differently from
its twin is as much a finding as a diverging summary.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Iterable, Mapping, Sequence

from ..analysis.verify import verify_artifacts
from ..core.cache import StageCache
from ..core.compiler import FPSACompiler
from ..errors import FPSAError, VerificationError
from ..service.schemas import ErrorPayload, ResultSummary, strip_seconds
from ..wire import WireRecord
from .generate import PNR_PE_LIMIT, ModelSpec, build_graph, estimate_pes

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..arch.params import FPSAConfig

__all__ = [
    "CONFIG_GROUPS",
    "Outcome",
    "Finding",
    "SpecCheck",
    "strip_seconds",
    "compile_spec",
    "check_spec",
]

#: configuration-lattice groups ``check_spec`` can run (``subset=``).
CONFIG_GROUPS = ("repeat", "warm", "pnr", "chips")

#: execution knobs no lattice point sets, each with its reason; a test
#: holds every other execution knob of the table to a non-default value
#: somewhere in the lattice, so a new one cannot be forgotten.
_UNFUZZED = {
    "shard_jobs": "spawns a process pool per spec",
    "dedup": "accepted no-op; nothing reads it",
    "pnr_jobs": "accepted no-op; nothing reads it",
}


@dataclass(frozen=True)
class Outcome:
    """What one configuration's compile of one spec produced."""

    config: str
    status: str  # "ok" | "error"
    #: seconds-stripped ``ResultSummary`` dict (ok outcomes only).
    summary: dict[str, Any] | None = None
    #: typed error identity (ok outcomes: None).  Only the deterministic
    #: fields (code/type/message) participate in equivalence.
    error: dict[str, Any] | None = None

    @property
    def ok(self) -> bool:
        return self.status == "ok"

    def comparable(self, *, ignore_partition: bool = False) -> tuple:
        summary = self.summary
        if summary is not None and ignore_partition:
            summary = {k: v for k, v in summary.items() if k != "partition"}
        frozen_error = (
            tuple(sorted((k, str(v)) for k, v in self.error.items()))
            if self.error is not None
            else None
        )
        return (self.status, _freeze(summary), frozen_error)


def _freeze(value: Any) -> Any:
    if isinstance(value, dict):
        return tuple(sorted((k, _freeze(v)) for k, v in value.items()))
    if isinstance(value, (list, tuple)):
        return tuple(_freeze(v) for v in value)
    return value


@dataclass(frozen=True)
class Finding(WireRecord):
    """One surviving disagreement between two lattice points."""

    spec: ModelSpec
    config: str
    kind: str  # "determinism" | "error-divergence" | "chips" | "verify"
    detail: str

    def to_dict(self) -> dict[str, Any]:
        return {**super().to_dict(), "spec_id": self.spec.spec_id()}


@dataclass
class SpecCheck:
    """The oracle's verdict on one spec."""

    spec: ModelSpec
    findings: list[Finding] = field(default_factory=list)
    configs: list[str] = field(default_factory=list)
    compiles: int = 0

    @property
    def ok(self) -> bool:
        return not self.findings


def _error_identity(payload: ErrorPayload) -> dict[str, Any]:
    return {"code": payload.code, "type": payload.type, "message": payload.message}


def compile_spec(
    spec: ModelSpec,
    *,
    config_name: str,
    config: "FPSAConfig | None" = None,
    cache: StageCache | None = None,
    **knobs: Any,
) -> Outcome:
    """Compile one spec under one lattice configuration (``knobs`` are
    compile knobs; ``seed`` defaults to 0 and verification is always on).

    Never raises for compile failures: typed :class:`FPSAError`\\ s (and
    unexpected exceptions, mapped to the ``internal`` code exactly like
    :func:`repro.service.client.serve_request`) become error outcomes so
    the oracle can compare failure identities across configurations.
    """
    try:
        graph = build_graph(spec)
        compiler = FPSACompiler(
            config=config,
            cache=cache if cache is not None else StageCache(),
        )
        knobs.setdefault("seed", 0)
        result = compiler.compile(graph, verify=True, **knobs)
    except FPSAError as exc:
        return Outcome(
            config=config_name,
            status="error",
            error=_error_identity(ErrorPayload.from_exception(exc)),
        )
    except Exception as exc:  # noqa: BLE001 - oracle boundary: compare, don't crash
        return Outcome(
            config=config_name,
            status="error",
            error=_error_identity(ErrorPayload.from_exception(exc)),
        )
    # second oracle: the standalone IR verifiers over the final artifacts
    # (the in-pipeline interposition already ran; this re-checks the
    # artifacts exactly as a cache/store boundary would)
    try:
        verify_artifacts(
            {
                name: getattr(result, attr)
                for name, attr in (
                    ("graph", "graph"),
                    ("coreops", "coreops"),
                    ("partition", "partition"),
                    ("mapping", "mapping"),
                    ("pnr", "pnr"),
                )
                if getattr(result, attr, None) is not None
            },
            ctx=result,
        )
    except VerificationError as exc:
        return Outcome(
            config=config_name,
            status="error",
            error=_error_identity(ErrorPayload.from_exception(exc)),
        )
    summary = ResultSummary.from_result(result, compiler.config).to_dict()
    return Outcome(
        config=config_name, status="ok", summary=strip_seconds(summary)
    )


def check_spec(
    spec: ModelSpec,
    *,
    seed: int = 0,
    config: "FPSAConfig | None" = None,
    subset: Sequence[str] | None = None,
) -> SpecCheck:
    """Run the full differential lattice over one spec.

    ``subset`` restricts the lattice to the named :data:`CONFIG_GROUPS`
    (the shrinker re-checks candidates against only the groups that
    failed).
    """
    groups = tuple(subset) if subset is not None else CONFIG_GROUPS
    unknown = sorted(set(groups) - set(CONFIG_GROUPS))
    if unknown:
        raise FPSAError(f"unknown config group(s): {unknown}")
    check = SpecCheck(spec=spec)

    def run(config_name: str, **kwargs: Any) -> Outcome:
        check.compiles += 1
        check.configs.append(config_name)
        return compile_spec(
            spec, config_name=config_name, seed=seed, config=config, **kwargs
        )

    def expect_same(
        reference: Outcome,
        outcome: Outcome,
        *,
        kind: str = "determinism",
        ignore_partition: bool = False,
    ) -> None:
        if outcome.comparable(ignore_partition=ignore_partition) == reference.comparable(
            ignore_partition=ignore_partition
        ):
            return
        if reference.status != outcome.status:
            detail = (
                f"{reference.config} -> {reference.status} "
                f"({(reference.error or {}).get('code', '-')}) but "
                f"{outcome.config} -> {outcome.status} "
                f"({(outcome.error or {}).get('code', '-')})"
            )
            kind = "error-divergence"
        elif reference.status == "error":
            detail = (
                f"error identity diverged: {reference.config} raised "
                f"{reference.error} but {outcome.config} raised {outcome.error}"
            )
            kind = "error-divergence"
        else:
            diverged = _diff_sections(
                reference.summary or {}, outcome.summary or {}, ignore_partition
            )
            detail = (
                f"summary diverged between {reference.config} and "
                f"{outcome.config} in section(s): {', '.join(diverged) or '?'}"
            )
        check.findings.append(
            Finding(spec=spec, config=outcome.config, kind=kind, detail=detail)
        )

    base_cache = StageCache()
    base = run("base", cache=base_cache)

    if "repeat" in groups:
        expect_same(base, run("repeat"))
    if "warm" in groups:
        expect_same(base, run("warm", cache=base_cache))
    if "pnr" in groups and spec.size_class == "small" and estimate_pes(spec) <= PNR_PE_LIMIT:
        expect_same(run("pnr-base", run_pnr=True), run("pnr-repeat", run_pnr=True))
    if "chips" in groups:
        chips_a = run("chips1-a", num_chips=1)
        chips_b = run("chips1-b", num_chips=1)
        expect_same(chips_a, chips_b)
        if chips_a.ok:
            # the 1-chip partition is the identity modulo its summary section
            expect_same(base, chips_a, kind="chips", ignore_partition=True)
        elif base.ok and (chips_a.error or {}).get("code") != "capacity_error":
            check.findings.append(
                Finding(
                    spec=spec,
                    config=chips_a.config,
                    kind="error-divergence",
                    detail=(
                        "num_chips=1 failed where the classic flow succeeded, "
                        f"and not with capacity_error: {chips_a.error}"
                    ),
                )
            )
        auto_a = run("auto-a", num_chips="auto")
        expect_same(auto_a, run("auto-b", num_chips="auto"))
        if base.ok and not auto_a.ok:
            check.findings.append(
                Finding(
                    spec=spec,
                    config=auto_a.config,
                    kind="chips",
                    detail=(
                        "num_chips='auto' failed where the classic flow "
                        f"succeeded: {auto_a.error}"
                    ),
                )
            )
        elif chips_a.ok:
            # under capacity, auto resolves to 1 chip: exact identity
            expect_same(chips_a, auto_a, kind="chips")
    return check


def _diff_sections(
    a: Mapping[str, Any], b: Mapping[str, Any], ignore_partition: bool
) -> list[str]:
    sections: Iterable[str] = sorted(set(a) | set(b))
    diverged = []
    for section in sections:
        if ignore_partition and section == "partition":
            continue
        if a.get(section) != b.get(section):
            diverged.append(section)
    return diverged
