"""Content-addressed stage cache for the compilation pipeline.

Sweeps in ``experiments/`` and ``benchmarks/`` compile the same model many
times while varying only back-end knobs (duplication degree, architecture
baselines, P&R parameters).  The :class:`StageCache` lets cacheable passes
skip re-running when their *content-addressed* key — a fingerprint of the
input graph, the hardware configuration and the pass options — was seen
before.  Cached artifacts are shared by reference; passes treat every
artifact as immutable, so sharing is safe.

The default process-wide cache (:func:`default_cache`) is what
:class:`~repro.core.compiler.FPSACompiler` uses unless a private cache (or
``cache=False``) is given.

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
    "LOOKUP_MEMORY",
    "LOOKUP_SHARED",
    "LOOKUP_MISS",
    "LOOKUP_SHARED_MISS",
    "default_cache",
    "clear_default_cache",
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
    """Hit/miss/eviction counters of one :class:`StageCache`.

    ``hits``/``misses`` count overall lookup outcomes (a hit served from
    either tier is a hit); ``shared_hits``/``shared_misses`` count the
    shared-tier lookups that happen on in-memory misses, and ``evictions``
    counts entries dropped from the in-memory LRU by :meth:`StageCache.put`.
    ``write_errors`` counts writes a cache tier degraded to a counted miss
    instead of letting an ``OSError`` (disk full, permissions, injected
    fault) escape into the compile.
    """

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    shared_hits: int = 0
    shared_misses: int = 0
    write_errors: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        return self.hits / self.lookups if self.lookups else 0.0

    @property
    def shared_lookups(self) -> int:
        return self.shared_hits + self.shared_misses

    @property
    def shared_hit_rate(self) -> float:
        if not self.shared_lookups:
            return 0.0
        return self.shared_hits / self.shared_lookups

    def merge(self, other: "CacheStats | None") -> "CacheStats":
        """Accumulate another counter set into this one (returns self)."""
        if other is not None:
            self.hits += other.hits
            self.misses += other.misses
            self.evictions += other.evictions
            self.shared_hits += other.shared_hits
            self.shared_misses += other.shared_misses
            self.write_errors += getattr(other, "write_errors", 0)
        return self

    def record_lookup(self, tier: str) -> None:
        """Count one :meth:`StageCache.lookup` outcome by its tier."""
        if tier in (LOOKUP_MEMORY, LOOKUP_SHARED):
            self.hits += 1
        else:
            self.misses += 1
        if tier == LOOKUP_SHARED:
            self.shared_hits += 1
        elif tier == LOOKUP_SHARED_MISS:
            self.shared_misses += 1


#: :meth:`StageCache.lookup` outcome tiers.
LOOKUP_MEMORY = "memory"
LOOKUP_SHARED = "shared"
LOOKUP_MISS = "miss"
LOOKUP_SHARED_MISS = "shared_miss"


class StageCache:
    """A bounded, thread-safe LRU cache of pass artifacts.

    Keys are content-addressed strings produced by the passes' ``cache_key``
    methods; values are ``{artifact name: object}`` dicts installed verbatim
    into the :class:`~repro.core.pipeline.CompileContext` on a hit.

    An optional :class:`~repro.core.shared_cache.SharedStageCache` given as
    ``shared=`` (or assigned to :attr:`shared`) acts as a second,
    cross-process tier: in-memory misses fall through to the shared
    directory, and puts are written through so other processes can hit.
    """

    def __init__(
        self,
        max_entries: int = 256,
        shared: "SharedStageCache | None" = None,
    ):
        if max_entries <= 0:
            raise InvalidRequestError("max_entries must be positive")
        self.max_entries = max_entries
        self.stats = CacheStats()
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
        tier = None if shared is None else (shared.directory, shared.max_bytes, shared.verify)
        return _process_copy, (self._token, self.max_entries, tier)

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            if key in self._entries:
                return True
        return self.shared is not None and key in self.shared

    def get(self, key: str) -> dict[str, Any] | None:
        return self.lookup(key)[0]

    def lookup(self, key: str) -> tuple[dict[str, Any] | None, str]:
        """Like :meth:`get`, but also reports which tier answered.

        The second element is one of :data:`LOOKUP_MEMORY`,
        :data:`LOOKUP_SHARED`, :data:`LOOKUP_MISS` or
        :data:`LOOKUP_SHARED_MISS` — callers that need *per-compile*
        counters (the pass manager) tally these locally, since deltas of
        the cache-global ``stats`` would mix in concurrent compiles
        sharing this cache.
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is not None:
                self._entries.move_to_end(key)
                self.stats.hits += 1
                return entry, LOOKUP_MEMORY
        # fall through to the cross-process tier outside the lock: disk
        # reads must not serialize unrelated in-memory lookups
        if self.shared is not None:
            artifacts = self.shared.get(key)
            if artifacts is not None:
                with self._lock:
                    self.stats.shared_hits += 1
                    self.stats.hits += 1
                self._install(key, artifacts)
                return artifacts, LOOKUP_SHARED
            with self._lock:
                self.stats.shared_misses += 1
                self.stats.misses += 1
            return None, LOOKUP_SHARED_MISS
        with self._lock:
            self.stats.misses += 1
        return None, LOOKUP_MISS

    def _install(self, key: str, artifacts: dict[str, Any]) -> int:
        """Install an entry in the in-memory LRU (no shared write-through);
        returns how many entries the bound pushed out."""
        evicted = 0
        with self._lock:
            self._entries[key] = artifacts
            self._entries.move_to_end(key)
            while len(self._entries) > self.max_entries:
                self._entries.popitem(last=False)
                self.stats.evictions += 1
                evicted += 1
        return evicted

    def put(
        self, key: str, artifacts: dict[str, Any], stats: CacheStats | None = None
    ) -> int:
        """Store an entry (write-through to the shared tier); returns the
        number of in-memory evictions this put caused.

        A shared-tier write that fails (disk full, permissions) degrades
        to a counted miss: it lands in this cache's ``write_errors`` and,
        when a per-compile ``stats`` object is given, in that too.
        """
        evicted = self._install(key, artifacts)
        if self.shared is not None:
            if not self.shared.put(key, artifacts):
                with self._lock:
                    self.stats.write_errors += 1
                if stats is not None:
                    stats.write_errors += 1
        return evicted

    def clear(self) -> None:
        """Drop the in-memory entries and reset the stats.

        The cross-process shared tier is left alone — other processes may
        be serving from it (wipe it with ``cache.shared.clear()``).
        """
        with self._lock:
            self._entries.clear()
            self.stats = CacheStats()


#: the copies of pickled caches this process received, by token.
_COPIES: dict[str, StageCache] = {}
# a forked child is a different process: it starts with no copies
os.register_at_fork(after_in_child=_COPIES.clear)


def _process_copy(
    token: str, max_entries: int, tier: tuple[str, int, bool | None] | None
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


def _make_default_cache() -> StageCache:
    # honour REPRO_SHARED_CACHE in every process that imports the library
    from .shared_cache import shared_cache_from_env

    return StageCache(shared=shared_cache_from_env())


_DEFAULT_CACHE = _make_default_cache()


def default_cache() -> StageCache:
    """The process-wide stage cache shared by all compilers by default."""
    return _DEFAULT_CACHE


def clear_default_cache() -> None:
    """Drop every in-memory entry (and the stats) of the process-wide
    cache; its shared tier is left alone."""
    _DEFAULT_CACHE.clear()
