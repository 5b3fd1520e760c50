"""The pass-based compilation pipeline.

The end-to-end compiler is organised as an ordered list of *passes* running
over a shared :class:`CompileContext` (the artifact bag).  Each pass declares
which artifacts it ``requires`` and which it ``provides``; the
:class:`PassManager` validates the dependencies up front, times every pass,
and consults an optional :class:`~repro.core.cache.StageCache` so that
repeated sweeps skip the expensive front-end stages entirely.

The built-in passes live next to the layers they wrap:

========================  ================================  ==========
pass                      module                            provides
========================  ================================  ==========
``synthesis``             :mod:`repro.synthesizer.passes`   ``coreops``
``partition``             :mod:`repro.partition.passes`     ``partition``
``mapping``               :mod:`repro.mapper.passes`        ``mapping``
``perf``                  :mod:`repro.perf.passes`          ``performance``
``bounds``                :mod:`repro.perf.passes`          ``bounds``
``pnr``                   :mod:`repro.pnr.passes`           ``pnr``
``bitstream``             :mod:`repro.config_gen.passes`    ``bitstream``
========================  ================================  ==========

Custom passes subclass :class:`CompilePass` and register themselves with
:func:`register_pass`; see ``ARCHITECTURE.md`` for a worked example.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import Field, dataclass, field
from typing import TYPE_CHECKING, Any, Callable, Iterable, Sequence

from ..errors import InvalidRequestError

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids layer imports
    from ..arch.params import FPSAConfig
    from ..graph.graph import ComputationalGraph
    from ..synthesizer.synthesizer import SynthesisOptions
    from .cache import StageCache

__all__ = [
    "AUTO_CHIPS",
    "KNOBS",
    "PUBLIC_KNOBS",
    "CompileOptions",
    "CompileContext",
    "CompilePass",
    "PassManager",
    "PassTiming",
    "PassError",
    "PassDependencyError",
    "UnknownPassError",
    "register_pass",
    "available_passes",
    "resolve_passes",
    "default_pass_names",
    "ARTIFACTS",
]

#: artifact slots a pass may provide on the :class:`CompileContext`.
ARTIFACTS = (
    "coreops",
    "partition",
    "mapping",
    "performance",
    "bounds",
    "pnr",
    "bitstream",
)

#: ``CompileOptions.num_chips`` value requesting the smallest chip count
#: that satisfies the per-chip capacity (``config.interchip``).
AUTO_CHIPS = "auto"

#: context fields available before any pass runs.
_INITIAL_ARTIFACTS = ("graph", "config", "options")


class PassError(RuntimeError):
    """Base class for pipeline construction/execution errors."""


class PassDependencyError(PassError):
    """A pass requires an artifact no earlier pass provides."""


class UnknownPassError(PassError):
    """A pass name does not appear in the registry."""


# --------------------------------------------------------------------------
# the compile-knob table
# --------------------------------------------------------------------------
# A check is ``(expects, ok)``: the phrase the error message uses and the
# predicate a legal value satisfies.

Check = tuple[str, Callable[[Any], bool]]


def is_number(value: Any, kind: Any = (int, float)) -> bool:
    # ``bool`` subclasses ``int``; ``True`` is never a legal number
    return isinstance(value, kind) and not isinstance(value, bool)


def integer(minimum: int) -> Check:
    return f"an integer >= {minimum}", lambda v: is_number(v, int) and v >= minimum


def or_none(check: Check) -> Check:
    expects, ok = check
    return f"None or {expects}", lambda v: v is None or ok(v)


BOOLEAN: Check = ("a boolean", lambda v: isinstance(v, bool))
COUNT = or_none(integer(1))


def knob(
    check: Check, role: str, fingerprinted: bool | None = None,
    flag: str | None = None, help: str | None = None, **default: Any,
):
    """Declare one knob: a dataclass field (``default=`` or
    ``default_factory=``) carrying its ``check``, its ``role`` —
    ``semantic`` changes the artifact; ``execution`` must not;
    ``internal`` is set by the partition backend, never by a caller;
    ``serving`` shapes whether and when a result is served — and whether
    the request fingerprint includes it (default: semantic knobs only).

    A knob the command line exposes names its ``flag`` (``--chips``)
    and its ``help`` here; :mod:`repro.cli` generates the option from
    them, converts a value by the field's declared type and leaves
    judging it to ``check``."""
    if fingerprinted is None:
        fingerprinted = role == "semantic"
    return field(
        metadata=dict(role=role, fingerprinted=fingerprinted, check=check, flag=flag, help=help),
        **default,
    )


def check_knobs(obj: Any, knobs: Iterable[Field]) -> None:
    """Raise ``InvalidRequestError`` for the first knob whose value on
    ``obj`` fails its check."""
    for f in knobs:
        expects, ok = f.metadata["check"]
        value = getattr(obj, f.name)
        if not ok(value):
            raise InvalidRequestError(
                f"{f.name} must be {expects}, got {value!r}",
                details={f.name: repr(value)},
            )


@dataclass(frozen=True)
class CompileOptions:
    """Everything that parameterises a compilation, and the one declaration
    of every compile knob: each field carries its role, fingerprint
    membership and value check (see :func:`knob`; ``ARCHITECTURE.md``,
    "Compile options", prints the table).

    The non-``internal`` fields (:data:`PUBLIC_KNOBS`) are the keyword
    arguments :meth:`repro.core.compiler.FPSACompiler.compile` accepts and
    the knob fields :class:`~repro.service.schemas.CompileRequest` mirrors;
    passes read them from ``ctx.options``.  A pass's ``cache_key`` is *not*
    derived from roles: it keys on exactly the fields the pass reads.
    """

    #: extra copies of the bottleneck weight groups (Section 5.2): trades
    #: area for throughput.
    duplication_degree: int = knob(
        integer(1), "semantic", flag="--duplication", default=1,
        help="duplication degree (extra copies of the bottleneck weight groups)",
    )
    #: when given, the largest duplication degree that fits this many PEs
    #: is chosen instead of ``duplication_degree``.
    pe_budget: int | None = knob(
        COUNT, "semantic", flag="--pe-budget", default=None,
        help="choose the largest duplication degree that fits this many PEs",
    )
    #: run placement and PathFinder routing (small/medium netlists only).
    run_pnr: bool = knob(
        BOOLEAN, "semantic", flag="--pnr", default=False,
        help="run placement & routing on the function-block netlist (small models)",
    )
    #: assemble the chip configuration from the mapping and, when
    #: available, the P&R result.
    emit_bitstream: bool = knob(BOOLEAN, "semantic", default=False)
    #: routing-channel width (``None`` = the architecture's default).
    pnr_channel_width: int | None = knob(COUNT, "semantic", default=None)
    #: stage-local placer seed; the master ``seed`` takes precedence.
    pnr_seed: int = knob(integer(0), "semantic", default=0)
    #: accepted, ignored (threads measured 0.73-0.80x).
    pnr_jobs: int | None = knob(COUNT, "execution", default=None)
    #: master seed every stochastic stage derives its stream from
    #: (:func:`repro.seeding.derive_seed`): same inputs, same bits.
    seed: int | None = knob(
        or_none(("an integer", lambda v: is_number(v, int))), "semantic", default=None
    )
    #: multi-chip partitioning: ``None`` is the classic single-chip flow
    #: (no capacity enforcement), an ``int >= 1`` partitions across exactly
    #: that many chips (enforcing ``config.interchip.max_pes_per_chip``),
    #: and :data:`AUTO_CHIPS` picks the smallest chip count that fits.  A
    #: 1-chip partition is bit-identical to the unpartitioned pipeline.
    num_chips: int | str | None = knob(
        (
            f"None, {AUTO_CHIPS!r} or an integer >= 1",
            lambda v: v is None or v == AUTO_CHIPS or (is_number(v, int) and v >= 1),
        ),
        "semantic",
        flag="--chips",
        help="compile across N chips, or 'auto' for the smallest count that fits "
        "the per-chip PE capacity",
        default=None,
    )
    #: worker processes for the per-shard backend compiles (``None``/``1``
    #: = sequential, sharing one stage cache across the shards).  Changes
    #: no artifact, but stays fingerprinted: stored run ids predate the
    #: role split.
    shard_jobs: int | None = knob(
        COUNT, "execution", fingerprinted=True, flag="--chip-jobs", default=None,
        help="worker processes for the per-shard backend compiles (default: "
        "sequential, sharing one stage cache)",
    )
    #: allocate this shard against the whole model's pipeline pace instead
    #: of its local bottleneck (see :func:`repro.mapper.allocation.allocate`).
    target_iterations: int | None = knob(COUNT, "internal", default=None)
    replication: int | None = knob(COUNT, "internal", default=None)
    #: useful-operation count the perf/bounds passes normalise against;
    #: ``None`` reads ``ctx.graph.total_ops()`` (shards carry no graph).
    useful_ops_per_sample: float | None = knob(
        or_none(("a number", is_number)), "internal", default=None
    )
    #: mapping-time capacity pre-flight: raise ``CapacityError`` when the
    #: allocation exceeds this many PEs, before any netlist is built (a
    #: shard's per-chip capacity, as a safety net against partitioner drift).
    max_pes: int | None = knob(COUNT, "internal", default=None)
    #: run the IR verifiers (:mod:`repro.analysis.verify`) between passes,
    #: failing fast with a :class:`~repro.errors.VerificationError`;
    #: ``REPRO_VERIFY=1`` turns it on globally.
    verify: bool = knob(
        BOOLEAN, "execution", flag="--verify", default=False,
        help="run the IR verifiers between passes (REPRO_VERIFY=1 does the same "
        "globally)",
    )
    #: no-op kept for callers that still send it; goes with the next wire schema.
    dedup: bool = knob(BOOLEAN, "execution", default=False)

    def __post_init__(self) -> None:
        check_knobs(self, KNOBS)

    @property
    def partitioned(self) -> bool:
        """Whether this compile goes through the multi-chip partition flow."""
        return self.num_chips is not None

    def effective_pnr_seed(self) -> int:
        """The placer seed in effect: derived from the master ``seed`` when
        one is set, otherwise the stage-local ``pnr_seed``."""
        if self.seed is not None:
            from ..seeding import derive_seed

            return derive_seed(self.seed, "pnr")
        return self.pnr_seed


#: the knob table, built once at import.
KNOBS: tuple[Field, ...] = dataclasses.fields(CompileOptions)
#: the knobs callers may set: ``compile()`` keywords and wire fields.
PUBLIC_KNOBS: tuple[Field, ...] = tuple(
    f for f in KNOBS if f.metadata["role"] != "internal"
)


@dataclass
class CompileContext:
    """The shared artifact bag one compilation flows through.

    The front half (``graph``, ``config``, ``options``,
    ``synthesis_options``) is the immutable input; the back half is filled
    in by the passes.  Artifacts are also reachable by name through
    :meth:`get` / :meth:`set` / :meth:`has`, which is what the
    :class:`PassManager` and the stage cache use.
    """

    graph: "ComputationalGraph"
    config: "FPSAConfig"
    options: CompileOptions = field(default_factory=CompileOptions)
    synthesis_options: "SynthesisOptions | None" = None

    coreops: Any = None
    partition: Any = None
    mapping: Any = None
    performance: Any = None
    bounds: Any = None
    pnr: Any = None
    bitstream: Any = None
    #: the compile's stage-cache tally, counted into by every
    #: :meth:`PassManager.run` over this context (not a context artifact;
    #: per compile, so concurrent compiles sharing one cache cannot
    #: contaminate each other's numbers).  ``None`` when no run consulted
    #: a cache.
    cache_stats: Any = field(default=None, compare=False)

    def resolved_synthesis_options(self) -> "SynthesisOptions":
        """The synthesis options in effect (defaults derive from the PE)."""
        if self.synthesis_options is not None:
            return self.synthesis_options
        from ..synthesizer.synthesizer import SynthesisOptions

        return SynthesisOptions.from_pe(self.config.pe)

    def has(self, name: str) -> bool:
        self._check_readable(name)
        return getattr(self, name) is not None

    def get(self, name: str) -> Any:
        self._check_readable(name)
        return getattr(self, name)

    def set(self, name: str, value: Any) -> None:
        if name not in ARTIFACTS:
            raise KeyError(f"unknown artifact {name!r}; known: {ARTIFACTS}")  # repro-lint: disable=ERR001
        setattr(self, name, value)

    @staticmethod
    def _check_readable(name: str) -> None:
        # the initial context fields are readable (a pass may require them)
        # but only real artifacts are writable
        if name not in ARTIFACTS and name not in _INITIAL_ARTIFACTS:
            raise KeyError(  # repro-lint: disable=ERR001
                f"unknown artifact {name!r}; known: {ARTIFACTS + _INITIAL_ARTIFACTS}"
            )


class CompilePass:
    """One stage of the compilation pipeline.

    Subclasses set ``name``, ``requires`` and ``provides`` and implement
    :meth:`run`.  A pass that can be cached returns a stable
    content-addressed key from :meth:`cache_key`; returning ``None`` (the
    default) opts out.
    """

    #: unique pass name (also the registry key and the CLI spelling).
    name: str = "<unnamed>"
    #: artifact names that must be present on the context before running.
    requires: tuple[str, ...] = ()
    #: artifact names this pass fills in.
    provides: tuple[str, ...] = ()

    def run(self, ctx: CompileContext) -> None:
        raise NotImplementedError

    def cache_key(self, ctx: CompileContext) -> str | None:
        """Content-addressed cache key, or ``None`` when not cacheable."""
        del ctx
        return None

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


@dataclass(frozen=True)
class PassTiming:
    """Wall-clock record of one pass execution."""

    name: str
    seconds: float
    cached: bool
    provides: tuple[str, ...]

    @property
    def missed(self) -> bool:
        """Ran for want of a cache entry (a ``verify:*`` row is no pass)."""
        return not self.cached and not self.name.startswith("verify:")


class PassManager:
    """Run an ordered, dependency-checked list of passes.

    Dependencies are validated at construction time: every pass's
    ``requires`` must be provided by an earlier pass (or be one of the
    initial context fields), so mis-ordered or incomplete pipelines fail
    before any work is done.

    ``preloaded`` names artifacts the caller installs on the context before
    :meth:`run` — a *partial* pipeline starting mid-flow.  The multi-chip
    backend uses this to run ``mapping``/``perf``/``pnr`` over a shard's
    pre-partitioned ``coreops`` without a synthesis pass in front.
    """

    def __init__(self, passes: Iterable[CompilePass], preloaded: Sequence[str] = ()):
        self.passes = list(passes)
        unknown = [a for a in preloaded if a not in ARTIFACTS]
        if unknown:
            raise PassError(
                f"preloaded artifacts {unknown} are not known artifacts {ARTIFACTS}"
            )
        self.preloaded = tuple(preloaded)
        names = [p.name for p in self.passes]
        duplicates = {n for n in names if names.count(n) > 1}
        if duplicates:
            raise PassError(f"duplicate passes in pipeline: {sorted(duplicates)}")
        self._validate_dependencies()

    def _validate_dependencies(self) -> None:
        provided: set[str] = set(_INITIAL_ARTIFACTS) | set(self.preloaded)
        for p in self.passes:
            missing = [r for r in p.requires if r not in provided]
            if missing:
                raise PassDependencyError(
                    f"pass {p.name!r} requires {missing} but only "
                    f"{sorted(provided)} are available at that point; "
                    f"reorder the pipeline or add the producing pass"
                )
            provided.update(p.provides)

    def run(
        self, ctx: CompileContext, cache: "StageCache | None" = None
    ) -> list[PassTiming]:
        """Execute the passes over ``ctx``; returns the per-pass timings.

        When a cache is consulted, the run's evictions are tallied into
        ``ctx.cache_stats``, the compile's own
        :class:`~repro.core.cache.CacheStats` handed to every cache
        ``put``: concurrent compiles sharing one cache never mix
        their numbers.

        When verification is on (``ctx.options.verify`` or
        ``REPRO_VERIFY=1``), every artifact with a registered verifier is
        checked right after it lands on the context — whether freshly
        computed or installed from a cache hit — and each check's
        wall-clock is appended as a ``verify:<artifact>`` timing row
        (``cached=False``, empty ``provides``; excluded from the cache
        hit/miss counters).
        """
        from ..analysis.verify import verification_enabled, verify_artifact
        from .cache import CacheStats

        timings: list[PassTiming] = []
        if cache is not None and ctx.cache_stats is None:
            ctx.cache_stats = CacheStats()
        stats = ctx.cache_stats if cache is not None else None
        verify = verification_enabled(
            True if getattr(ctx.options, "verify", False) else None
        )
        if verify and ctx.graph is not None:
            # the input graph is checked once, up front (shard backends
            # run graph-less contexts and skip straight to the artifacts)
            start = time.perf_counter()
            verify_artifact("graph", ctx.graph, ctx)
            timings.append(
                PassTiming(
                    name="verify:graph",
                    seconds=time.perf_counter() - start,
                    cached=False,
                    provides=(),
                )
            )
        for p in self.passes:
            missing = [r for r in p.requires if not ctx.has(r)]
            if missing:
                raise PassDependencyError(
                    f"pass {p.name!r} is missing required artifacts {missing} "
                    f"at run time (an earlier pass produced nothing?)"
                )
            start = time.perf_counter()
            cached = False
            key = p.cache_key(ctx) if cache is not None else None
            if key is not None:
                hit = cache.get(key)
                if hit is not None:
                    for artifact, value in hit.items():
                        ctx.set(artifact, value)
                    cached = True
            if not cached:
                p.run(ctx)
                if key is not None:
                    artifacts = {a: ctx.get(a) for a in p.provides}
                    cache.put(key, artifacts, stats)
            timings.append(
                PassTiming(
                    name=p.name,
                    seconds=time.perf_counter() - start,
                    cached=cached,
                    provides=p.provides,
                )
            )
            if verify:
                for artifact in p.provides:
                    if not ctx.has(artifact):
                        continue
                    start = time.perf_counter()
                    if verify_artifact(artifact, ctx.get(artifact), ctx):
                        timings.append(
                            PassTiming(
                                name=f"verify:{artifact}",
                                seconds=time.perf_counter() - start,
                                cached=False,
                                provides=(),
                            )
                        )
        return timings


# --------------------------------------------------------------------------
# pass registry
# --------------------------------------------------------------------------

_REGISTRY: dict[str, type[CompilePass]] = {}
_BUILTINS_LOADED = False


def register_pass(cls: type[CompilePass]) -> type[CompilePass]:
    """Class decorator: make a pass available to :func:`resolve_passes`."""
    if not isinstance(getattr(cls, "name", None), str) or not cls.name:
        raise PassError(f"pass class {cls.__name__} must set a 'name' attribute")
    _REGISTRY[cls.name] = cls
    return cls


def _ensure_builtin_passes() -> None:
    """Import the layer pass modules so their registrations run.

    Lazy on purpose: the layer modules import this module, so importing
    them from the top level here would be circular.
    """
    global _BUILTINS_LOADED
    if _BUILTINS_LOADED:
        return
    from ..config_gen import passes as _a  # noqa: F401
    from ..mapper import passes as _b  # noqa: F401
    from ..partition import passes as _c  # noqa: F401
    from ..perf import passes as _d  # noqa: F401
    from ..pnr import passes as _e  # noqa: F401
    from ..synthesizer import passes as _f  # noqa: F401

    _BUILTINS_LOADED = True


def available_passes() -> dict[str, type[CompilePass]]:
    """Registry snapshot: pass name -> pass class."""
    _ensure_builtin_passes()
    return dict(_REGISTRY)


def resolve_passes(names: Sequence[str]) -> list[CompilePass]:
    """Instantiate registered passes by name, preserving order."""
    registry = available_passes()
    passes = []
    for name in names:
        try:
            passes.append(registry[name]())
        except KeyError:
            raise UnknownPassError(
                f"unknown pass {name!r}; known passes: {sorted(registry)}"
            ) from None
    return passes


def default_pass_names(options: CompileOptions) -> list[str]:
    """The pass list :meth:`FPSACompiler.compile` runs for ``options``.

    For a partitioned compile (``options.num_chips`` set) the names after
    ``partition`` are the *per-shard backend* pipeline: the compiler runs
    ``synthesis`` + ``partition`` once, then the rest once per shard.
    """
    names = ["synthesis"]
    if options.partitioned:
        names.append("partition")
    names += ["mapping", "perf", "bounds"]
    if options.run_pnr:
        names.append("pnr")
    if options.emit_bitstream:
        names.append("bitstream")
    return names
