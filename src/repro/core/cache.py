"""Content-addressed stage cache for the compilation pipeline.

Sweeps in ``experiments/`` and ``benchmarks/`` compile the same model many
times while varying only back-end knobs (duplication degree, architecture
baselines, P&R parameters).  The :class:`StageCache` lets cacheable passes
skip re-running when their *content-addressed* key — a fingerprint of the
input graph, the hardware configuration and the pass options — was seen
before.  Cached artifacts are shared by reference; passes treat every
artifact as immutable, so sharing is safe.

The cache keeps no counters: the only ones are the per-compile
:class:`CacheStats` tally the pass manager hands to every ``get``/``put``.
The default process-wide cache (:func:`default_cache`, built on its first
call) is what :class:`~repro.core.compiler.FPSACompiler` uses unless a
private cache (or ``cache=False``) is given.

A cache crosses a process boundary by one rule (:meth:`StageCache.__reduce__`):
the default cache arrives as the receiving process's :func:`default_cache`,
and any other cache as that process's single copy of it — the same bound,
the same shared tier, empty memory.  Worker pools therefore take the cache
they were given; nothing names a stand-in for it.
"""

from __future__ import annotations

import hashlib
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any

from ..errors import InvalidRequestError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..arch.params import FPSAConfig
    from ..graph.graph import ComputationalGraph
    from ..mapper.netlist import FunctionBlockNetlist
    from ..synthesizer.coreop import CoreOpGraph
    from .shared_cache import SharedStageCache

__all__ = [
    "StageCache",
    "CacheStats",
    "default_cache",
    "fingerprint",
    "graph_fingerprint",
    "config_fingerprint",
    "coreops_fingerprint",
    "netlist_fingerprint",
]


def fingerprint(*parts: Any) -> str:
    """SHA-256 digest of the ``repr`` of the given parts.

    All the objects fed here are frozen dataclasses, ``NamedTuple``
    records, strings or numbers, whose ``repr`` is deterministic within
    (and across) processes.
    """
    digest = hashlib.sha256()
    for part in parts:
        digest.update(repr(part).encode("utf-8"))
        digest.update(b"\x1f")
    return digest.hexdigest()


def _memoized_fingerprint(obj: Any, compute) -> str:
    """Fingerprint of ``obj``, memoized on the object itself.

    Re-``repr``-ing an O(model) structure on every cache lookup is the
    dominant cost of a warm compile, so the digest is stashed on the
    artifact keyed by its ``mutation_count`` — every supported mutator
    (``add``/``add_group``/``add_edge``/``add_block``/``add_net``) bumps
    the counter, invalidating the memo.  Objects without a counter (or
    with immutable ``__slots__``) simply recompute every time.
    """
    version = getattr(obj, "mutation_count", None)
    if version is not None:
        memo = getattr(obj, "_fingerprint_memo", None)
        if memo is not None and memo[0] == version:
            return memo[1]
    digest = compute()
    if version is not None:
        try:
            obj._fingerprint_memo = (version, digest)
        except AttributeError:  # pragma: no cover - slotted/frozen object
            pass
    return digest


def graph_fingerprint(graph: "ComputationalGraph") -> str:
    """Content fingerprint of a computational graph (memoized on the graph).

    Covers the node names, operations (dataclass ``repr`` includes every
    field), wiring and output shapes — everything the synthesizer reads.
    """
    return _memoized_fingerprint(
        graph,
        lambda: fingerprint(
            graph.name,
            *(
                (n.name, repr(n.op), tuple(n.inputs), n.output.shape)
                for n in graph.nodes()
            ),
        ),
    )


def config_fingerprint(config: "FPSAConfig") -> str:
    """Content fingerprint of a hardware configuration (memoized: the
    config is a frozen dataclass, so the digest can never go stale)."""
    memo = getattr(config, "_fingerprint_memo", None)
    if memo is not None:
        return memo
    digest = fingerprint(config)
    try:
        # frozen dataclass: bypass the frozen setattr for the memo slot
        object.__setattr__(config, "_fingerprint_memo", digest)
    except AttributeError:  # pragma: no cover - slotted config
        pass
    return digest


def coreops_fingerprint(coreops: "CoreOpGraph") -> str:
    """Content fingerprint of a core-op graph (groups + edges), memoized.

    Downstream passes key their caches on the artifact they actually
    consume, so a non-default producer (e.g. a custom synthesis pass)
    can never alias a standard-pipeline cache entry.
    """
    return _memoized_fingerprint(
        coreops,
        lambda: fingerprint(coreops.name, *coreops.groups(), *coreops.edges()),
    )


def netlist_fingerprint(netlist: "FunctionBlockNetlist") -> str:
    """Content fingerprint of a function-block netlist (blocks + nets),
    memoized on the netlist."""
    return _memoized_fingerprint(
        netlist,
        lambda: fingerprint(
            netlist.model, *netlist.blocks.values(), *netlist.nets
        ),
    )


@dataclass
class CacheStats:
    """The stage-cache counters of one compile, the cache's only books.

    Hits and misses are the compile's pass timings
    (:attr:`~repro.core.result.DeploymentResult.cache_hits` /
    ``cache_misses``); this tally keeps what those cannot see.
    ``shared_hits``/``shared_misses`` count the shared-tier lookups that
    happen on in-memory misses; ``evictions`` counts entries
    the compile's puts pushed out of the in-memory LRU (installing a
    shared-tier hit is not one).  ``write_errors`` counts shared-tier
    writes that degraded to a miss instead of letting an ``OSError`` (disk
    full, permissions, injected fault) escape into the compile.
    """

    evictions: int = 0
    shared_hits: int = 0
    shared_misses: int = 0
    write_errors: int = 0

    @property
    def shared_lookups(self) -> int:
        return self.shared_hits + self.shared_misses

    def merge(self, other: "CacheStats | None") -> "CacheStats":
        """Accumulate another counter set into this one (returns self)."""
        if other is not None:
            self.evictions += other.evictions
            self.shared_hits += other.shared_hits
            self.shared_misses += other.shared_misses
            self.write_errors += other.write_errors
        return self


class StageCache:
    """A bounded, thread-safe LRU cache of pass artifacts.

    Keys are content-addressed strings produced by the passes' ``cache_key``
    methods; values are ``{artifact name: object}`` dicts installed verbatim
    into the :class:`~repro.core.pipeline.CompileContext` on a hit.

    An optional :class:`~repro.core.shared_cache.SharedStageCache` given as
    ``shared=`` (or assigned to :attr:`shared`) acts as a second,
    cross-process tier: in-memory misses fall through to the shared
    directory, and puts are written through so other processes can hit.
    An entry ``get``/``put`` are told is not ``shareable`` stays in memory
    and never touches that tier.  A compile passes each pass's
    :attr:`~repro.core.pipeline.CompilePass.shareable`, which only P&R
    sets, so the tier holds P&R results only.
    """

    def __init__(
        self,
        max_entries: int = 256,
        shared: "SharedStageCache | None" = None,
    ):
        if max_entries <= 0:
            raise InvalidRequestError("max_entries must be positive")
        self.max_entries = max_entries
        self.shared = shared
        self._entries: OrderedDict[str, dict[str, Any]] = OrderedDict()
        self._lock = threading.Lock()
        #: identity every copy of this cache in another process shares.
        self._token = os.urandom(16).hex()

    def __reduce__(self):
        """The process-boundary rule: the default cache arrives as the
        receiving process's :func:`default_cache`; any other cache as that
        process's single copy of it (:func:`_process_copy`)."""
        if self is _DEFAULT_CACHE:
            return default_cache, ()
        shared = self.shared
        tier = None if shared is None else (shared.directory, shared.max_bytes)
        return _process_copy, (self._token, self.max_entries, tier)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        return self.shared is not None and key in self.shared

    def get(
        self, key: str, stats: CacheStats | None = None, shareable: bool = True
    ) -> dict[str, Any] | None:
        """The artifacts under ``key`` or ``None``; an in-memory miss of a
        ``shareable`` entry falls through to the shared tier, whose hit is
        installed in memory and whose lookup is counted into ``stats`` when
        given."""
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
        # fall through to the cross-process tier outside the lock: disk
        # reads must not serialize unrelated in-memory lookups
        if entry is None and shareable and self.shared is not None:
            entry = self.shared.get(key)
            if entry is not None:
                self._install(key, entry)
            if stats is not None:
                if entry is None:
                    stats.shared_misses += 1
                else:
                    stats.shared_hits += 1
        return entry

    def _install(self, key: str, artifacts: dict[str, Any]) -> int:
        """Install an entry in the in-memory LRU (no shared write-through);
        returns how many entries the bound pushed out."""
        with self._lock:
            self._entries[key] = artifacts
            self._entries.move_to_end(key)
            evicted = max(0, len(self._entries) - self.max_entries)
            for _ in range(evicted):
                self._entries.popitem(last=False)
        return evicted

    def put(
        self,
        key: str,
        artifacts: dict[str, Any],
        stats: CacheStats | None = None,
        shareable: bool = True,
    ) -> None:
        """Store an entry, written through to the shared tier when
        ``shareable``; its evictions and a failed shared write (never
        raised) are counted into ``stats`` when given."""
        evicted = self._install(key, artifacts)
        written = (
            not shareable or self.shared is None or self.shared.put(key, artifacts)
        )
        if stats is not None:
            stats.evictions += evicted
            stats.write_errors += 0 if written else 1

    def clear(self) -> None:
        """Drop the in-memory entries.  The shared tier is left alone —
        other processes may be serving from it (``cache.shared.clear()``)."""
        with self._lock:
            self._entries.clear()


#: the copies of pickled caches this process received, by token.
_COPIES: dict[str, StageCache] = {}
# a forked child is a different process: it starts with no copies
os.register_at_fork(after_in_child=_COPIES.clear)


def _process_copy(
    token: str, max_entries: int, tier: tuple[str, int] | None
) -> StageCache:
    """This process's copy of the cache ``token`` names: built on first
    arrival (same bound, same shared tier, empty memory), then reused."""
    copy = _COPIES.get(token)
    if copy is None:
        from .shared_cache import SharedStageCache

        shared = None if tier is None else SharedStageCache(*tier)
        copy = StageCache(max_entries, shared)
        copy._token = token
        copy = _COPIES.setdefault(token, copy)
    return copy


_DEFAULT_CACHE: StageCache | None = None
_DEFAULT_LOCK = threading.Lock()


def default_cache() -> StageCache:
    """The process-wide stage cache shared by all compilers by default.

    Built on the first call, over the tier ``REPRO_SHARED_CACHE`` names,
    so a malformed setting fails that call with a typed
    :class:`~repro.errors.InvalidRequestError`, never ``import repro``.
    """
    global _DEFAULT_CACHE
    with _DEFAULT_LOCK:
        if _DEFAULT_CACHE is None:
            from .shared_cache import shared_cache_from_env

            _DEFAULT_CACHE = StageCache(shared=shared_cache_from_env())
        return _DEFAULT_CACHE
