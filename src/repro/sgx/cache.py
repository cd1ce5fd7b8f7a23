"""In-enclave caching: the one sizing value of the encrypted search path.

EncDBDB's evaluation argues entirely in terms of boundary crossings,
per-entry decryptions, and attribute-vector comparisons (§5, Fig. 8,
Table 4) — and a naive reproduction pays the worst case for all three on
every query. This module provides the lever that amortizes them:

- :class:`EnclaveLruCache`, a strictly budgeted LRU that memoizes decrypted
  dictionary entries *inside* the enclave. Its capacity is charged against
  the :class:`~repro.sgx.memory.EpcModel` (the 96 MiB usable-EPC model), so
  the cache can never silently grow past what SGX hardware would allow, and
  every eviction is reported to the :class:`~repro.sgx.costs.CostModel` as a
  paging event. Enclave analytical engines live or die by amortizing
  transition and EPC-paging costs (DuckDB-SGX2; StealthDB caches decrypted
  state under a strict memory budget) — this is that lever.
- :class:`FastPathConfig`, which holds that budget and nothing else. A
  budget of 0 means no cache object exists at all: the paper's
  constant-memory enclave, which decrypts every probe (Figure 8, Table 4).

Security argument (see DESIGN.md "Query fast path"): cached plaintext lives
only in enclave-protected memory, keyed by the ciphertext blob itself, so a
hit can never serve a plaintext that does not match the blob the untrusted
side handed in. Access-pattern leakage is unchanged: every probe is still
recorded in the accessor's probe log whether it hits or misses.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import asdict, dataclass
from typing import Any, Callable, Hashable

from repro.exceptions import EnclaveMemoryError
from repro.sgx.costs import CostModel
from repro.sgx.memory import EpcModel


#: Key-prefix width of the invalidation index: ``(table, column, partition)``.
GROUP_WIDTH = 3


def _group_of(key: Hashable) -> tuple:
    """A key's invalidation group: its ``GROUP_WIDTH`` prefix, or ``()`` for
    non-tuple and shorter keys."""
    if isinstance(key, tuple) and len(key) >= GROUP_WIDTH:
        return key[:GROUP_WIDTH]
    return ()


@dataclass
class CacheStats:
    """Observable (non-secret) counters of one :class:`EnclaveLruCache`."""

    hits: int = 0
    misses: int = 0
    insertions: int = 0
    evictions: int = 0
    invalidations: int = 0
    rejected: int = 0  # entries larger than the whole budget
    peak_bytes: int = 0

    def snapshot(self) -> dict[str, int]:
        return asdict(self)


class EnclaveLruCache:
    """A byte-budgeted LRU cache living in enclave-protected memory.

    The budget is reserved up front through the EPC model, so a cache that
    would not fit into the usable EPC fails at construction (strict mode)
    instead of silently overcommitting. ``used_bytes`` can never exceed
    ``budget_bytes``: inserts evict least-recently-used entries first and
    each eviction is charged to the cost model as an EPC paging event —
    the architectural price of churning enclave-resident state.

    All cache state is guarded by one re-entrant lock, so concurrent ecalls
    (the server interleaves sessions) can probe and fill the cache without
    corrupting the LRU order or the byte accounting. The lock is ordered
    before the cost model's own lock (``put`` reports evictions while
    holding it); nothing ever acquires them in the opposite order.
    """

    def __init__(
        self,
        *,
        budget_bytes: int,
        cost_model: CostModel | None = None,
        epc: EpcModel | None = None,
    ) -> None:
        if budget_bytes <= 0:
            raise EnclaveMemoryError("cache budget must be positive")
        self._budget = int(budget_bytes)
        self._cost = cost_model
        self._epc = epc
        # Reserve the whole budget against the EPC model: the enclave pays
        # for its cache region whether or not it is full, exactly like a
        # static in-enclave buffer would.
        self._allocation = epc.allocate(self._budget) if epc is not None else None
        self._lock = threading.RLock()
        self._entries: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()  # guarded-by: self._lock
        # Resident keys per ``(table, column, partition)`` group (see
        # _group_of): a partition's invalidation drops one group instead of
        # scanning every resident key. Holds exactly the keys of _entries.
        self._groups: dict[tuple, set] = {}  # guarded-by: self._lock
        self._used = 0  # guarded-by: self._lock
        self.stats = CacheStats()  # guarded-by: self._lock

    # ------------------------------------------------------------------
    @property
    def budget_bytes(self) -> int:
        return self._budget

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    # ------------------------------------------------------------------
    def get(self, key: Hashable, default: Any = None) -> Any:
        """Look up ``key``; a hit refreshes its LRU position.

        The recency refresh is skipped below half occupancy: with that much
        headroom no insert can force an eviction soon, so the LRU order is
        irrelevant and the ``move_to_end`` would be pure overhead on the
        hottest path of a query (approximate LRU, standard cache practice).
        """
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                self.stats.misses += 1
                return default
            self.stats.hits += 1
            if 2 * self._used >= self._budget:
                self._entries.move_to_end(key)
            return entry[0]

    def put(self, key: Hashable, value: Any, nbytes: int) -> bool:
        """Insert ``value`` charged at ``nbytes``; evicts LRU entries first.

        Returns ``False`` (and caches nothing) when a single entry exceeds
        the whole budget — such values are served pass-through instead of
        wiping the cache for one oversized resident.
        """
        nbytes = int(nbytes)
        with self._lock:
            if nbytes > self._budget:
                self.stats.rejected += 1
                return False
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._used -= previous[1]
            else:
                self._groups.setdefault(_group_of(key), set()).add(key)
            while self._used + nbytes > self._budget:
                evicted_key, (_, evicted_bytes) = self._entries.popitem(last=False)
                self._unindex(evicted_key)
                self._used -= evicted_bytes
                self.stats.evictions += 1
                if self._cost is not None:
                    # Evicting enclave-resident state is a paging event: the
                    # page's worth of cached plaintext has to be
                    # re-established (re-decrypted) if it is needed again.
                    self._cost.record_page_fault()
            self._entries[key] = (value, nbytes)
            self._used += nbytes
            self.stats.insertions += 1
            self.stats.peak_bytes = max(self.stats.peak_bytes, self._used)
            return True

    def _unindex(self, key: Hashable) -> None:
        with self._lock:
            group = _group_of(key)
            members = self._groups[group]
            members.discard(key)
            if not members:
                del self._groups[group]

    def _drop(self, keys: list) -> int:
        with self._lock:
            for key in keys:
                _, nbytes = self._entries.pop(key)
                self._unindex(key)
                self._used -= nbytes
            self.stats.invalidations += len(keys)
            return len(keys)

    def invalidate(self, predicate: Callable[[Hashable], bool]) -> int:
        """Drop every entry whose key satisfies ``predicate``."""
        with self._lock:
            return self._drop([key for key in self._entries if predicate(key)])

    def invalidate_prefix(self, prefix: tuple) -> int:
        """Drop every tuple key starting with ``prefix``.

        Cache keys are structured ``(table, column, partition, epoch,
        blob)``, so a ``(table, column, partition)`` prefix evicts exactly
        one partition's worth of cached plaintext — the partition-granular
        eviction the incremental merge relies on — and drops that
        partition's index group without looking at any other key. Other
        widths scan. Non-tuple keys (foreign users of the cache) are never
        matched.
        """
        width = len(prefix)
        if width == GROUP_WIDTH:
            with self._lock:
                return self._drop(list(self._groups.get(tuple(prefix), ())))
        return self.invalidate(
            lambda key: isinstance(key, tuple)
            and len(key) >= width
            and key[:width] == prefix
        )

    def group_usage(self) -> dict[tuple, int]:
        """Resident bytes per ``(table, column, partition)`` group (EPC
        accounting): how much of the enclave's cache budget each partition
        currently occupies, read off the invalidation index. Non-tuple or
        short keys are pooled under the empty group ``()``.
        """
        with self._lock:
            return {
                group: sum(self._entries[key][1] for key in members)
                for group, members in self._groups.items()
            }

    def clear(self) -> int:
        """Drop everything (e.g. on re-provisioning of key material)."""
        with self._lock:
            dropped = len(self._entries)
            self._entries.clear()
            self._groups.clear()
            self._used = 0
            self.stats.invalidations += dropped
            return dropped


@dataclass(frozen=True)
class FastPathConfig:
    """The enclave's decrypted-entry budget: the search path's one setting.

    A positive ``dictionary_cache_bytes`` reserves that much EPC for an
    :class:`EnclaveLruCache` of decrypted entries and packed-ordinal arrays.
    0 is the paper's constant-memory enclave: no cache exists, nothing is
    reserved, every probe is decrypted and ED3/6/9 scan entry by entry.
    Everything else the search path does — the derived-key memo, one
    boundary crossing per query plan, per-query scan-mask reuse — holds no
    per-dictionary state and is not configurable.
    """

    #: EPC budget of the entry cache (charged against the 96 MiB model).
    dictionary_cache_bytes: int = 8 * 1024 * 1024

    def __post_init__(self) -> None:
        if self.dictionary_cache_bytes < 0:
            raise EnclaveMemoryError(
                "dictionary_cache_bytes must be 0 (no cache) or positive"
            )
