"""The in-process compilation service: request execution and the client.

:func:`serve_request` is the single choke point every front-end (the
:class:`FPSAClient`, the :class:`~repro.service.jobs.JobManager` workers and
the CLI) funnels through: it looks up the model's shared graph, runs the
pass pipeline, and converts the outcome — success or typed failure — into
a wire-ready :class:`~repro.service.schemas.CompileResponse`.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from ..arch.params import FPSAConfig
from ..core.cache import StageCache
from ..core.compiler import FPSACompiler
from ..core.pipeline import PassError
from ..core.result import DeploymentResult
from ..errors import InvalidRequestError
from ..models.zoo import shared_model
from ..synthesizer.synthesizer import SynthesisOptions
from .schemas import CompileRequest, CompileResponse, CompileTimings, ErrorPayload, ResultSummary

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .store import ArtifactStore

__all__ = ["ServedCompile", "serve_request", "FPSAClient"]


@dataclass(frozen=True)
class ServedCompile:
    """One served compilation: the wire response plus, when the compile ran
    in this process, the live :class:`DeploymentResult` artifacts."""

    response: CompileResponse
    result: DeploymentResult | None = None

    @property
    def ok(self) -> bool:
        return self.response.ok


@functools.cache
def _default_config() -> FPSAConfig:
    """The paper's configuration, built once per process: it is frozen, so
    every ``config=None`` request shares it and its memoized fingerprint."""
    return FPSAConfig()


def _compiler_for(
    request: CompileRequest,
    config: FPSAConfig | None,
    cache: StageCache | bool | None,
) -> FPSACompiler:
    config = config if config is not None else _default_config()
    synthesis_options = None
    if request.synthesis_options is not None:
        try:
            synthesis_options = SynthesisOptions.from_pe(
                config.pe, **request.synthesis_options
            )
        except TypeError as exc:
            raise InvalidRequestError(
                f"invalid synthesis_options: {exc}",
                details={"synthesis_options": dict(request.synthesis_options)},
            ) from exc
    return FPSACompiler(config=config, synthesis_options=synthesis_options, cache=cache)


def serve_request(
    request: CompileRequest,
    config: FPSAConfig | None = None,
    cache: StageCache | bool | None = None,
) -> ServedCompile:
    """Execute one request; never raises for compile failures.

    Typed :class:`FPSAError`\\ s (and any unexpected exception, mapped to the
    ``internal`` code) become structured error payloads on the response, so
    wire-level callers see the same failure taxonomy in-process callers
    catch as exceptions.
    """
    try:
        compiler = _compiler_for(request, config, cache)
        graph = shared_model(request.model)
        result = compiler.compile(graph, **request.compile_kwargs())
    except Exception as exc:  # noqa: BLE001 - service boundary: report, don't crash
        # a bad pass list on the request is the caller's mistake, not a
        # server fault: invalid_request.  ErrorPayload.from_exception keeps
        # the typed FPSAError taxonomy and maps anything else to ``internal``
        if isinstance(exc, PassError):
            exc = InvalidRequestError(str(exc))
        error = ErrorPayload.from_exception(exc)
        return ServedCompile(CompileResponse(request=request, status="error", error=error))
    response = CompileResponse(
        request=request,
        status="ok",
        summary=ResultSummary.from_result(result, compiler.config),
        timings=CompileTimings.from_pass_timings(
            result.timings, cache_stats=result.cache_stats
        ),
    )
    return ServedCompile(response=response, result=result)


class FPSAClient:
    """In-process client of the compilation service.

    The client shares one hardware configuration and one stage cache across
    all its compiles, optionally persists every response (and emitted
    bitstream) to an :class:`~repro.service.store.ArtifactStore`, and
    exposes both wire-level (:meth:`compile`) and artifact-level
    (:meth:`deploy`) entry points.

    Parameters
    ----------
    config:
        Hardware configuration served to every request (defaults to the
        paper's 45 nm parameters).
    cache:
        Stage-cache setting forwarded to the compiler (see
        :class:`FPSACompiler`).
    store:
        When given, every response of :meth:`compile` / :meth:`compile_batch`
        is persisted under a content-addressed run directory.
    """

    def __init__(
        self,
        config: FPSAConfig | None = None,
        cache: StageCache | bool | None = None,
        store: "ArtifactStore | None" = None,
    ):
        self.config = config if config is not None else FPSAConfig()
        self.cache = cache
        self.store = store

    def _coerce(self, request: CompileRequest | str | dict, **kwargs: Any) -> CompileRequest:
        if isinstance(request, CompileRequest):
            return request
        if isinstance(request, dict):
            return CompileRequest.from_dict(request)
        return CompileRequest(model=request, **kwargs)

    def serve(self, request: CompileRequest | str | dict, **kwargs: Any) -> ServedCompile:
        """Serve one request; returns the response plus live artifacts."""
        served = serve_request(self._coerce(request, **kwargs), self.config, self.cache)
        if self.store is not None:
            bitstream = served.result.bitstream if served.result is not None else None
            self.store.save(served.response, None if bitstream is None else bitstream.to_json())
        return served

    def compile(self, request: CompileRequest | str | dict, **kwargs: Any) -> CompileResponse:
        """Serve one request and return the wire response (never raises)."""
        return self.serve(request, **kwargs).response

    def deploy(self, request: CompileRequest | str | dict, **kwargs: Any) -> DeploymentResult:
        """Serve one request and return the live artifacts.

        Unlike :meth:`compile` this *raises* the typed
        :class:`~repro.errors.FPSAError` of a failed compile — it is the
        entry point for in-process callers (experiments, ablations) that
        need the artifact objects rather than the wire summary.
        """
        served = self.serve(request, **kwargs)
        served.response.raise_for_status()
        assert served.result is not None  # an ok in-process serve has artifacts
        return served.result

    def compile_batch(
        self,
        requests: Iterable[CompileRequest | str | dict],
        jobs: int | None = 1,
    ) -> list[CompileResponse]:
        """Serve a batch of requests, optionally across a process pool.

        ``jobs=1`` (the default) serves sequentially in this process and
        shares the client's stage cache across the whole batch; ``jobs>1``
        (or ``None`` for auto) dispatches through a
        :class:`~repro.service.jobs.JobManager` process pool.  Responses
        come back in request order either way.
        """
        resolved: Sequence[CompileRequest] = [self._coerce(r) for r in requests]
        if jobs == 1 or len(resolved) <= 1:
            return [self.serve(r).response for r in resolved]
        from .jobs import JobManager

        with JobManager(
            max_workers=jobs, config=self.config, cache=self.cache, store=self.store
        ) as manager:
            return manager.serve_batch(resolved)
