"""A small LRU mapping for the stores' real-bytes memoisation caches.

Both stores memoise decoded column-chunk values, page indexes (Fusion)
and degraded-read reconstructions keyed by object name.  A decoded
chunk's entry also remembers what each filter leaf selected in it (the
selection memo, ``kernel.DecodedChunk``), so those selections share the
entry's bound and every eviction.  The cached values
carry *real* bytes only — every simulated cost is still charged per
access — so the caches exist purely to save benchmark wall-clock.  They
must therefore stay small (bounded LRU) and must be invalidated whenever
an object's bytes can change (put of a reused name, delete, and every
repair or migration that moves a block).
"""

from __future__ import annotations

from collections import OrderedDict, deque
from typing import Callable, Generic, Hashable, Iterator, TypeVar

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


class LruDict(Generic[K, V]):
    """Mapping bounded to ``max_entries`` with least-recently-used eviction.

    ``group`` maps a key to the object it was derived from.  The cache
    keeps each group's keys apart, so :meth:`evict_group` drops one
    object's entries without looking at anyone else's.
    """

    def __init__(self, max_entries: int, group: Callable[[K], Hashable]) -> None:
        if max_entries < 1:
            raise ValueError("cache must hold at least one entry")
        self.max_entries = max_entries
        self._entries: OrderedDict[K, V] = OrderedDict()
        self._group = group
        # group -> its keys (a dict used as an ordered set).
        self._groups: dict[Hashable, dict[K, None]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, key: K) -> bool:
        return key in self._entries

    def __iter__(self) -> Iterator[K]:
        return iter(self._entries)

    def get(self, key: K, default: V | None = None) -> V | None:
        value = self._entries.get(key, default)
        if key in self._entries:
            self._entries.move_to_end(key)
        return value

    def __setitem__(self, key: K, value: V) -> None:
        entries = self._entries
        if key not in entries:
            self._groups.setdefault(self._group(key), {})[key] = None
        entries[key] = value
        entries.move_to_end(key)
        while len(entries) > self.max_entries:
            self._forget(entries.popitem(last=False)[0])

    def pop(self, key: K, default: V | None = None) -> V | None:
        if key not in self._entries:
            return default
        self._forget(key)
        return self._entries.pop(key)

    def clear(self) -> None:
        self._entries.clear()
        self._groups.clear()

    def evict_where(self, predicate: Callable[[K], bool]) -> int:
        """Drop every entry whose key matches; returns how many went.
        Scans every key: the reference :meth:`evict_group` is tested
        against."""
        doomed = [k for k in self._entries if predicate(k)]
        for k in doomed:
            self.pop(k)
        return len(doomed)

    def evict_group(self, group: Hashable) -> int:
        """Drop every entry of ``group``; returns how many went.  The
        deletes run in C (``deque(..., maxlen=0)`` drains the ``map``), so
        the cost is the group's, never the whole cache's."""
        doomed = self._groups.pop(group, None)
        if not doomed:
            return 0
        deque(map(self._entries.__delitem__, doomed), maxlen=0)
        return len(doomed)

    def _forget(self, key: K) -> None:
        """Take ``key`` out of its group's index."""
        group = self._group(key)
        members = self._groups[group]
        del members[key]
        if not members:
            del self._groups[group]
