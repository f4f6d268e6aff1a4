"""One bounded-LRU implementation for every cache in the codebase.

Both the kernel's route cache (:class:`repro.simgrid.platform.RouteCache`)
and the serving layer's forecast cache derive from this: a dict in
insertion order, recency refreshed on hit, oldest entry evicted on
overflow, with hit/miss/eviction counters for benches and tests.

``maxsize=0`` builds a *disabled* cache: every lookup is a counted miss
and ``put`` is a no-op, so callers can turn caching off without changing
their control flow or losing counter consistency.
"""

from __future__ import annotations

from typing import Optional

#: Module-level miss sentinel: distinguishes "key absent" from a cached
#: ``None`` value, so storing ``None`` counts as a hit instead of silently
#: recomputing and inflating the miss counter.
_MISS = object()


class BoundedLRU:
    """A bounded least-recently-used mapping with observability counters."""

    __slots__ = ("maxsize", "hits", "misses", "evictions", "_entries")

    def __init__(self, maxsize: int) -> None:
        if maxsize < 0:
            raise ValueError(f"cache size must be >= 0, got {maxsize}")
        self.maxsize = int(maxsize)
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self._entries: dict = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get(self, key, default: Optional[object] = None) -> Optional[object]:
        """The cached value, or ``default`` on a miss.

        Any stored value — including ``None`` — is a counted hit; only an
        absent key is a miss.  Callers that cache ``None`` legitimately can
        pass their own sentinel as ``default`` to tell the two apart.
        """
        entry = self._entries.get(key, _MISS)
        if entry is _MISS:
            self.misses += 1
            return default
        # refresh recency (dicts iterate in insertion order)
        del self._entries[key]
        self._entries[key] = entry
        self.hits += 1
        return entry

    def put(self, key, value) -> None:
        if self.maxsize == 0:
            return
        if key in self._entries:
            del self._entries[key]
        elif len(self._entries) >= self.maxsize:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.evictions += 1
        self._entries[key] = value

    def clear(self) -> None:
        self._entries.clear()

    def stats(self) -> dict:
        """Counters snapshot: hits, misses, evictions, size, maxsize."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "size": len(self._entries),
            "maxsize": self.maxsize,
        }
