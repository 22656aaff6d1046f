"""Bounded LRU of compiled engine snapshots, keyed by content hash.

The store's serving contract is *lazy compile-on-first-use*: a tenant's
active policy text is parsed and compiled into a
:class:`~repro.core.mediation.MediationEngine` only when a decision
first needs it, and the resulting engine lives in this cache.  Keys are
**content hashes**, not tenant names, which buys two things:

* **dedup** — ten thousand homes serving the same template policy
  share one compiled snapshot instead of ten thousand;
* **immutability** — a content-addressed entry can never go stale.  A
  tenant moving its active pointer simply resolves a different hash;
  the old entry ages out of the LRU tail instead of needing
  invalidation.

Memory is bounded by ``capacity`` compiled engines regardless of how
many tenants the store holds — the E13 bench gates on exactly this.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict

from repro.core.mediation import MediationEngine
from repro.exceptions import PolicyStoreError


class CompiledSnapshotCache:
    """Content-hash -> compiled :class:`MediationEngine`, bounded LRU.

    :param capacity: maximum resident compiled engines (>= 1).  A
        store serving more *distinct* active policy texts than this
        recompiles on demand; tenants sharing texts share entries.
    """

    def __init__(self, capacity: int = 8) -> None:
        if capacity < 1:
            raise PolicyStoreError("compiled cache capacity must be >= 1")
        self.capacity = capacity
        self._entries: "OrderedDict[str, MediationEngine]" = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_build(
        self,
        content_hash: str,
        builder: Callable[[], MediationEngine],
        usable: Callable[[MediationEngine], bool] = lambda engine: True,
    ) -> MediationEngine:
        """Return the cached engine for ``content_hash``, building on miss.

        The builder runs outside the LRU bookkeeping but under the
        cache lock, so concurrent resolvers of the same hash compile
        once; entries are content-addressed, so the *policy* in one
        can never be stale.  Its engine settings can differ from the
        caller's, though (the hash covers the text, not the threshold
        it is served under): an entry ``usable`` rejects counts as a
        miss and is replaced.
        """
        with self._lock:
            engine = self._entries.get(content_hash)
            if engine is not None and usable(engine):
                self._entries.move_to_end(content_hash)
                self.hits += 1
                return engine
            self.misses += 1
            engine = builder()
            self._entries[content_hash] = engine
            self._entries.move_to_end(content_hash)  # a replaced entry too
            while len(self._entries) > self.capacity:
                self._entries.popitem(last=False)
                self.evictions += 1
            return engine

    def resident(self, content_hash: str) -> bool:
        """Whether ``content_hash`` is currently compiled-resident
        (no LRU reordering — a pure probe, for tests and stats)."""
        return content_hash in self._entries

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def stats(self) -> Dict[str, object]:
        return {
            "capacity": self.capacity,
            "entries": len(self._entries),
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }
