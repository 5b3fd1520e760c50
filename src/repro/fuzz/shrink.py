"""Delta-debugging for failing :class:`ModelSpec`\\ s.

Given a spec and a predicate ``fails(spec) -> bool`` (True while the
failure reproduces), :func:`shrink` greedily applies size-reducing
mutations — drop contiguous layer chunks, drop single layers, halve
widths, collapse kernels, shrink the input, lower the bit width — and
keeps any candidate that still fails.  Every mutation is strictly
size-decreasing under :func:`spec_size`, so the result is never larger
than the input and the loop terminates without a fuel counter (though
``max_evaluations`` bounds predicate cost for expensive oracles).

The output is 1-minimal with respect to the mutation set: no single
remaining mutation preserves the failure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

from ..errors import FPSAError
from ..wire import WireRecord
from .generate import LayerSpec, ModelSpec

__all__ = ["ShrinkResult", "spec_size", "shrink"]


def spec_size(spec: ModelSpec) -> tuple[int, int, int, int]:
    """Lexicographic size of a spec: fewer (effective) layers beat
    narrower layers beat a smaller input beat fewer bits."""
    layers = spec.effective_layers
    return (
        len(layers),
        sum(layer.width + layer.kernel for layer in layers),
        int(math.prod(spec.input_shape)),
        spec.bits,
    )


@dataclass
class ShrinkResult(WireRecord):
    """Outcome of one shrink run."""

    original: ModelSpec
    spec: ModelSpec
    #: accepted mutations, in order ("drop-layers[2:4]", "halve-width[1]", ...)
    steps: list[str] = field(default_factory=list)
    #: predicate invocations spent (including rejected candidates)
    evaluations: int = 0

    def to_dict(self) -> dict[str, Any]:
        return {
            **super().to_dict(),
            "original_id": self.original.spec_id(),
            "spec_id": self.spec.spec_id(),
        }


def _replace_layers(spec: ModelSpec, layers: list[LayerSpec]) -> ModelSpec | None:
    try:
        return ModelSpec(
            name=spec.name,
            input_shape=spec.input_shape,
            layers=tuple(layers),
            bits=spec.bits,
            size_class=spec.size_class,
            repeat=spec.repeat,
            seed=spec.seed,
        )
    except FPSAError:
        return None


def _candidates(spec: ModelSpec) -> Iterator[tuple[str, ModelSpec]]:
    """Strictly size-decreasing mutations of ``spec``, most aggressive
    first (classic ddmin ordering: big chunks, then single elements, then
    parameter reductions)."""
    layers = list(spec.layers)
    n = len(layers)

    # unroll the repeat knob first: collapsing the whole stacking to one
    # block is the most aggressive reduction available, then halving it
    if spec.repeat > 1:
        for target, step in ((1, "collapse-repeat"), (spec.repeat // 2, "halve-repeat")):
            if 1 <= target < spec.repeat:
                yield step, ModelSpec(
                    name=spec.name,
                    input_shape=spec.input_shape,
                    layers=spec.layers,
                    bits=spec.bits,
                    size_class=spec.size_class,
                    repeat=target,
                    seed=spec.seed,
                )

    # drop contiguous chunks: halves, then quarters, then single layers
    chunk = n // 2
    while chunk >= 1:
        for start in range(0, n - chunk + 1):
            candidate = _replace_layers(spec, layers[:start] + layers[start + chunk :])
            if candidate is not None:
                yield f"drop-layers[{start}:{start + chunk}]", candidate
        chunk = chunk // 2 if chunk > 1 else 0

    # halve widths
    for i, layer in enumerate(layers):
        if layer.width > 1:
            mutated = LayerSpec(layer.kind, width=max(1, layer.width // 2), kernel=layer.kernel)
            candidate = _replace_layers(spec, layers[:i] + [mutated] + layers[i + 1 :])
            if candidate is not None:
                yield f"halve-width[{i}]", candidate

    # collapse kernels to 1x1
    for i, layer in enumerate(layers):
        if layer.kernel > 1:
            mutated = LayerSpec(layer.kind, width=layer.width, kernel=1)
            candidate = _replace_layers(spec, layers[:i] + [mutated] + layers[i + 1 :])
            if candidate is not None:
                yield f"collapse-kernel[{i}]", candidate

    # shrink the input: halve spatial sides / feature width, drop channels
    shape = spec.input_shape
    for i, dim in enumerate(shape):
        if dim > 1:
            smaller = list(shape)
            smaller[i] = max(1, dim // 2)
            try:
                yield f"shrink-input[{i}]", ModelSpec(
                    name=spec.name,
                    input_shape=tuple(smaller),
                    layers=spec.layers,
                    bits=spec.bits,
                    size_class=spec.size_class,
                    repeat=spec.repeat,
                    seed=spec.seed,
                )
            except FPSAError:
                pass

    # lower the weight precision
    if spec.bits > 4:
        yield "lower-bits", ModelSpec(
            name=spec.name,
            input_shape=spec.input_shape,
            layers=spec.layers,
            bits=4,
            size_class=spec.size_class,
            repeat=spec.repeat,
            seed=spec.seed,
        )


def shrink(
    spec: ModelSpec,
    fails: Callable[[ModelSpec], bool],
    *,
    max_evaluations: int = 500,
) -> ShrinkResult:
    """Reduce ``spec`` to a minimal spec for which ``fails`` still holds.

    ``fails(spec)`` must be True for the input itself (the caller has a
    reproducing failure in hand); it is never re-evaluated on the input.
    Candidate predicate errors count as "does not fail" (the candidate is
    rejected), so a flaky predicate can only under-shrink, never lose the
    reproducer.
    """
    result = ShrinkResult(original=spec, spec=spec)
    improved = True
    while improved and result.evaluations < max_evaluations:
        improved = False
        current_size = spec_size(result.spec)
        for step, candidate in _candidates(result.spec):
            if spec_size(candidate) >= current_size:
                continue  # paranoia: only ever walk downhill
            if result.evaluations >= max_evaluations:
                break
            result.evaluations += 1
            try:
                still_fails = fails(candidate)
            except Exception:  # noqa: BLE001 - reject, keep the reproducer
                still_fails = False
            if still_fails:
                result.spec = candidate
                result.steps.append(step)
                improved = True
                break  # restart candidate generation from the smaller spec
    return result
