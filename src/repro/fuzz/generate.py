"""Seeded random-model generation for the differential fuzzer.

A :class:`ModelSpec` is a compact, JSON-round-trippable description of a
random network: an input shape, a bit width, and an ordered list of
:class:`LayerSpec` entries drawn from the op mix the zoo exercises (conv,
pooling, dense, residual ``branch_add``, inception-style ``concat``).
:func:`build_graph` lowers a spec to a valid
:class:`~repro.graph.graph.ComputationalGraph` through the same
:class:`~repro.graph.builder.GraphBuilder` the model zoo uses, normalising
whatever a spec asks for into a legal graph (kernels are clamped to the
current spatial extent, a flatten is inserted before the first dense
layer, pooling a 1x1 map is a no-op, ...).  Normalisation makes
``build_graph`` *total* over valid specs, which is what lets the shrinker
mutate specs freely without tracking shape legality itself.

Generation is deterministic: ``generate_spec(seed, index)`` derives a
per-spec stream with :func:`repro.seeding.derive_seed`, so a campaign is
reproducible from its ``(seed, model count)`` pair alone.  Size classes
span under-capacity models (``small`` — also eligible for the P&R
configuration lattice), models close to the per-chip PE capacity
(``near``), and models exceeding it (``over`` — these exercise the
``CapacityError`` pre-flight on ``num_chips=1`` and the ``"auto"``
shard-it path).
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from typing import Any

from ..arch.params import ceil_div
from ..errors import InvalidRequestError
from ..graph.builder import GraphBuilder
from ..graph.graph import ComputationalGraph
from ..seeding import derive_seed
from ..wire import WireRecord

__all__ = [
    "LAYER_KINDS",
    "SIZE_CLASSES",
    "LayerSpec",
    "ModelSpec",
    "build_graph",
    "estimate_pes",
    "generate_spec",
    "generate_specs",
    "size_class_for_index",
]

#: the op mix a layer entry may request.
LAYER_KINDS = ("conv", "pool", "dense", "branch_add", "concat")

#: generator size classes, relative to the per-chip PE capacity.
SIZE_CLASSES = ("small", "near", "over")

#: specs at or under this estimated PE count also run the P&R lattice.
PNR_PE_LIMIT = 48

# crossbar geometry of the default PE (see repro.arch.params.PEParams) —
# used only for the *estimate*; the authoritative number is the mapper's.
_PE_ROWS = 256
_PE_COLS = 256

#: default per-chip capacity (repro.arch.params.InterChipParams).
_CHIP_PES = 2048


@dataclass(frozen=True)
class LayerSpec(WireRecord):
    """One requested layer of a random model.

    ``width`` is the conv ``out_channels`` / dense ``out_features`` /
    per-branch channel count of a ``concat``; ``kernel`` is the conv or
    pooling kernel (ignored by ``dense``).  ``branch_add`` ignores
    ``width`` (the residual branch must preserve the current shape).
    """

    kind: str
    width: int = 0
    kernel: int = 0

    def __post_init__(self) -> None:
        if self.kind not in LAYER_KINDS:
            raise InvalidRequestError(
                f"layer kind must be one of {LAYER_KINDS}, got {self.kind!r}",
                details={"kind": repr(self.kind)},
            )
        for name in ("width", "kernel"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise InvalidRequestError(
                    f"layer {name} must be a non-negative integer, got {value!r}",
                    details={"kind": self.kind, name: repr(value)},
                )
        if self.kind in ("conv", "dense", "concat") and self.width < 1:
            raise InvalidRequestError(
                f"{self.kind} layers need width >= 1, got {self.width}",
                details={"kind": self.kind, "width": self.width},
            )


@dataclass(frozen=True)
class ModelSpec(WireRecord):
    """A compact, serializable description of one random model."""

    name: str
    input_shape: tuple[int, ...]
    layers: tuple[LayerSpec, ...]
    bits: int = 6
    size_class: str = "small"
    #: how many times the ``layers`` block is stacked end-to-end.  ``1``
    #: (the default, and what every pre-knob corpus payload parses as)
    #: means the block appears once.
    repeat: int = 1
    #: campaign seed the spec was generated from (provenance only; a spec
    #: loaded from a corpus file keeps the seed it was found under).
    seed: int | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise InvalidRequestError(
                f"spec name must be a non-empty string, got {self.name!r}"
            )
        shape = tuple(int(d) for d in self.input_shape)
        if len(shape) not in (1, 3) or any(d < 1 for d in shape):
            raise InvalidRequestError(
                f"input_shape must be (features,) or (channels, h, w) of "
                f"positive dims, got {self.input_shape!r}",
                details={"input_shape": repr(self.input_shape)},
            )
        object.__setattr__(self, "input_shape", shape)
        if not self.layers:
            raise InvalidRequestError("a ModelSpec needs at least one layer")
        object.__setattr__(self, "layers", tuple(self.layers))
        if not isinstance(self.bits, int) or isinstance(self.bits, bool) or self.bits < 1:
            raise InvalidRequestError(f"bits must be an integer >= 1, got {self.bits!r}")
        if self.size_class not in SIZE_CLASSES:
            raise InvalidRequestError(
                f"size_class must be one of {SIZE_CLASSES}, got {self.size_class!r}",
                details={"size_class": repr(self.size_class)},
            )
        if (
            not isinstance(self.repeat, int)
            or isinstance(self.repeat, bool)
            or self.repeat < 1
        ):
            raise InvalidRequestError(
                f"repeat must be an integer >= 1, got {self.repeat!r}",
                details={"repeat": repr(self.repeat)},
            )
        if self.seed is not None and not isinstance(self.seed, int):
            raise InvalidRequestError(f"seed must be an integer or null, got {self.seed!r}")

    @property
    def effective_layers(self) -> tuple[LayerSpec, ...]:
        """The layer sequence with the ``repeat`` stacking applied."""
        return self.layers * self.repeat

    def to_dict(self) -> dict[str, Any]:
        data = super().to_dict()
        # emitted only when set, so pre-knob payloads (and spec ids)
        # are byte-for-byte unchanged
        if self.repeat == 1:
            del data["repeat"]
        return data

    def spec_id(self) -> str:
        """Content-addressed short id of this spec (name excluded, so a
        renamed corpus copy keeps its identity)."""
        data = self.to_dict()
        data.pop("name")
        data.pop("seed")
        canonical = json.dumps(data, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:12]


# --------------------------------------------------------------------------
# spec -> computational graph
# --------------------------------------------------------------------------

def _odd_clamp(kernel: int, cap: int) -> int:
    """The largest odd kernel <= min(kernel, cap), at least 1 (odd kernels
    with ``padding=k//2`` preserve spatial dims at stride 1, which keeps
    residual/concat branch shapes compatible)."""
    k = max(1, min(kernel, cap))
    return k if k % 2 else k - 1


class _ShapeWalk:
    """Tracks the current tensor shape while building / estimating."""

    def __init__(self, input_shape: tuple[int, ...]):
        if len(input_shape) == 1:
            self.flat: int | None = input_shape[0]
            self.c = self.h = self.w = 0
        else:
            self.flat = None
            self.c, self.h, self.w = input_shape

    @property
    def is_flat(self) -> bool:
        return self.flat is not None

    @property
    def size(self) -> int:
        return self.flat if self.flat is not None else self.c * self.h * self.w

    def flatten(self) -> None:
        self.flat = self.size

    def pool(self, kernel: int) -> int | None:
        """Apply pooling if legal; returns the clamped kernel or None."""
        if self.is_flat or min(self.h, self.w) < 2:
            return None
        k = min(max(kernel, 2), self.h, self.w)
        self.h = (self.h - k) // k + 1
        self.w = (self.w - k) // k + 1
        return k


def build_graph(spec: ModelSpec) -> ComputationalGraph:
    """Lower a spec to a validated computational graph.

    Total over valid specs: illegal requests are normalised (clamped
    kernels, implicit flatten, skipped pooling) rather than rejected, so
    any spec the generator or the shrinker produces builds.
    """
    builder = GraphBuilder(spec.name, spec.input_shape, bits=spec.bits)
    walk = _ShapeWalk(spec.input_shape)
    layers = spec.effective_layers
    last = len(layers) - 1
    for index, layer in enumerate(layers):
        if layer.kind == "conv":
            if walk.is_flat:
                # convs after the flatten point degrade to dense layers so
                # shrunk specs never become unbuildable
                builder.dense(layer.width, relu=True)
                walk.flat = layer.width
            else:
                k = _odd_clamp(layer.kernel or 3, min(walk.h, walk.w))
                builder.conv(layer.width, k, padding=k // 2, relu=True)
                walk.c = layer.width
        elif layer.kind == "pool":
            k = walk.pool(layer.kernel or 2)
            if k is not None:
                builder.maxpool(k)
        elif layer.kind == "dense":
            if not walk.is_flat:
                builder.flatten()
                walk.flatten()
            builder.dense(layer.width, relu=index != last)
            walk.flat = layer.width
        elif layer.kind == "branch_add":
            tap = builder.checkpoint()
            if walk.is_flat:
                builder.dense(walk.flat, relu=False, from_=tap)
            else:
                k = _odd_clamp(layer.kernel or 3, min(walk.h, walk.w))
                builder.conv(walk.c, k, padding=k // 2, relu=True, from_=tap)
            builder.add(tap, builder.current)
        elif layer.kind == "concat":
            tap = builder.checkpoint()
            if walk.is_flat:
                builder.dense(layer.width, from_=tap)
                left = builder.current
                builder.dense(layer.width, from_=tap)
                builder.concat([left, builder.current])
                walk.flat = 2 * layer.width
            else:
                builder.conv(layer.width, 1, from_=tap)
                left = builder.current
                k = _odd_clamp(layer.kernel or 3, min(walk.h, walk.w))
                builder.conv(layer.width, k, padding=k // 2, from_=tap)
                builder.concat([left, builder.current])
                walk.c = 2 * layer.width
    return builder.build()


def estimate_pes(spec: ModelSpec) -> int:
    """Rough minimum-PE estimate of a spec at duplication degree 1.

    Mirrors the mapper's per-weight-group tiling
    (``ceil(rows/256) * ceil(cols/256)``) over the same shape walk
    :func:`build_graph` performs; pooling/elementwise lowering overhead is
    approximated with one PE of slack per layer.  The estimate steers the
    generator's size classes — the authoritative capacity decision stays
    with the mapper's pre-flight.
    """
    walk = _ShapeWalk(spec.input_shape)
    total = 0

    def tiles(rows: int, cols: int) -> int:
        return ceil_div(rows, _PE_ROWS) * ceil_div(cols, _PE_COLS)

    for layer in spec.effective_layers:
        if layer.kind == "conv":
            if walk.is_flat:
                total += tiles(walk.size, layer.width)
                walk.flat = layer.width
            else:
                k = _odd_clamp(layer.kernel or 3, min(walk.h, walk.w))
                total += tiles(k * k * walk.c, layer.width)
                walk.c = layer.width
        elif layer.kind == "pool":
            if walk.pool(layer.kernel or 2) is not None:
                total += 1
        elif layer.kind == "dense":
            size = walk.size
            walk.flatten()
            total += tiles(size, layer.width)
            walk.flat = layer.width
        elif layer.kind == "branch_add":
            if walk.is_flat:
                total += tiles(walk.size, walk.size)
            else:
                k = _odd_clamp(layer.kernel or 3, min(walk.h, walk.w))
                total += tiles(k * k * walk.c, walk.c)
            total += 1
        elif layer.kind == "concat":
            if walk.is_flat:
                total += 2 * tiles(walk.size, layer.width)
                walk.flat = 2 * layer.width
            else:
                k = _odd_clamp(layer.kernel or 3, min(walk.h, walk.w))
                total += tiles(walk.c, layer.width)
                total += tiles(k * k * walk.c, layer.width)
                walk.c = 2 * layer.width
    return total


# --------------------------------------------------------------------------
# generation
# --------------------------------------------------------------------------

def size_class_for_index(index: int) -> str:
    """The default mixed-campaign rotation: mostly small models, with a
    near-capacity and an over-capacity model in every block of ten."""
    position = index % 10
    if position == 6:
        return "near"
    if position == 9:
        return "over"
    return "small"


def _small_spec(rng: random.Random) -> tuple[tuple[int, ...], list[LayerSpec]]:
    if rng.random() < 0.7:
        side = rng.choice((8, 12, 16))
        input_shape: tuple[int, ...] = (rng.choice((1, 3)), side, side)
        flat = False
    else:
        input_shape = (rng.choice((32, 64, 128, 256)),)
        flat = True
    layers: list[LayerSpec] = []
    depth = rng.randint(2, 7)
    while len(layers) < depth:
        if flat:
            kind = rng.choices(
                ("dense", "branch_add", "concat"), weights=(6, 2, 2)
            )[0]
        else:
            kind = rng.choices(
                ("conv", "pool", "dense", "branch_add", "concat"),
                weights=(35, 15, 15, 15, 20),
            )[0]
        if kind == "conv":
            layers.append(
                LayerSpec("conv", width=rng.choice((4, 8, 16)), kernel=rng.choice((1, 3, 5)))
            )
        elif kind == "pool":
            layers.append(LayerSpec("pool", kernel=2))
        elif kind == "dense":
            layers.append(LayerSpec("dense", width=rng.choice((16, 32, 64))))
            flat = True
        elif kind == "branch_add":
            layers.append(LayerSpec("branch_add", kernel=3))
        else:
            layers.append(LayerSpec("concat", width=rng.choice((4, 8)), kernel=3))
    layers.append(LayerSpec("dense", width=rng.choice((10, 16))))
    return input_shape, layers


def _capacity_spec(
    rng: random.Random, lo: int, hi: int, name: str, size_class: str, seed: int
) -> ModelSpec:
    """A dense stack whose estimated PE count lands in ``[lo, hi]``.

    Each individual layer stays well under one chip's capacity so the
    partitioner can always shard the model (``"auto"`` must succeed on
    over-capacity specs).
    """
    input_shape = (rng.choice((1024, 2048)),)
    layers: list[LayerSpec] = []

    def estimate(extra: list[LayerSpec]) -> int:
        return estimate_pes(
            ModelSpec(
                name=name,
                input_shape=input_shape,
                layers=tuple(layers + extra),
                size_class=size_class,
                seed=seed,
            )
        )

    target = rng.randint(lo, hi)
    head = LayerSpec("dense", width=100)
    while estimate([head]) < target:
        # the largest width that keeps the estimate inside the band; when
        # even the smallest overshoots ``hi`` the stack is already within
        # one increment of it, which the class bands comfortably absorb
        for width in (rng.choice((6144, 4096)), 4096, 2048):
            candidate = LayerSpec("dense", width=width)
            if estimate([candidate, head]) <= hi:
                layers.append(candidate)
                break
        else:
            break
    layers.append(head)
    return ModelSpec(
        name=name,
        input_shape=input_shape,
        layers=tuple(layers),
        size_class=size_class,
        seed=seed,
    )


def generate_spec(seed: int, index: int, size_class: str | None = None) -> ModelSpec:
    """Deterministically generate the ``index``-th spec of a campaign."""
    if size_class is not None and size_class not in SIZE_CLASSES:
        raise InvalidRequestError(
            f"size_class must be one of {SIZE_CLASSES} or None, got {size_class!r}"
        )
    resolved = size_class or size_class_for_index(index)
    rng = random.Random(derive_seed(seed, f"fuzz-spec-{index}-{resolved}"))
    name = f"fuzz-{seed}-{index}"
    if resolved == "small":
        input_shape, layers = _small_spec(rng)
        return ModelSpec(
            name=name,
            input_shape=input_shape,
            layers=tuple(layers),
            bits=rng.choice((4, 6, 8)),
            size_class="small",
            # a stacked block gives the partitioner and the mapper a deeper
            # model of the same layers; most specs stay single-block
            repeat=rng.choice((1, 1, 1, 2, 3)),
            seed=seed,
        )
    if resolved == "near":
        # stay comfortably under the 2048-PE chip so ``num_chips=1`` fits
        # even though the mapper's exact count runs a little above the
        # estimate (lowered pooling / elementwise groups)
        return _capacity_spec(rng, 1200, 1800, name, "near", seed)
    return _capacity_spec(rng, 2400, 4000, name, "over", seed)


def generate_specs(
    n: int, seed: int, size_class: str | None = None
) -> list[ModelSpec]:
    """The first ``n`` specs of campaign ``seed`` (``size_class=None`` uses
    the mixed rotation of :func:`size_class_for_index`)."""
    if n < 0:
        raise InvalidRequestError(f"model count must be >= 0, got {n}")
    return [generate_spec(seed, index, size_class) for index in range(n)]
