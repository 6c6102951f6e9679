"""Hierarchical content names, the server catalog, and the LRU store.

The same LruStore class backs RSU caches (bounded) and vehicle caches
(unbounded); hit/miss counters live inside the store so hit ratios can be
computed per node and aggregated later.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


class MalformedName(ValueError):
    """A content name string failed validation."""


class UnknownContent(KeyError):
    """A name was requested that the catalog does not hold."""


@dataclass(frozen=True)
class ContentName:
    """A hierarchical name such as /traffic/7, stored as its segments."""

    segments: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.segments:
            raise MalformedName("content name needs at least one segment")
        for seg in self.segments:
            if not seg:
                raise MalformedName("content name has an empty segment")
            if "/" in seg:
                raise MalformedName(f"segment may not contain '/': {seg!r}")

    def __str__(self) -> str:
        return "/" + "/".join(self.segments)


def parse_name(text: str) -> ContentName:
    """Parse canonical text form; round-trips with str()."""
    if not text or not text.startswith("/"):
        raise MalformedName(f"content name must start with '/': {text!r}")
    body = text[1:]
    if not body:
        raise MalformedName("empty content name")
    return ContentName(tuple(body.split("/")))


@dataclass(frozen=True)
class ContentItem:
    name: ContentName
    payload_bits: int

    def __post_init__(self) -> None:
        if self.payload_bits <= 0:
            raise ValueError(f"payload_bits must be positive: {self.payload_bits}")


class LruStore:
    """Name-keyed store with least-recently-used eviction.

    capacity None means unbounded (vehicle caches never evict). get()
    refreshes recency and counts a hit or miss; peek() does neither, for
    checks that must not distort the hit ratio or the eviction order.
    """

    def __init__(self, capacity: int | None = None) -> None:
        if capacity is not None and capacity < 1:
            raise ValueError(f"capacity must be >= 1 or None: {capacity}")
        self.capacity = capacity
        self._items: OrderedDict[ContentName, ContentItem] = OrderedDict()
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, name: ContentName) -> bool:
        return name in self._items

    def get(self, name: ContentName) -> ContentItem | None:
        item = self._items.get(name)
        if item is None:
            self.misses += 1
            return None
        self._items.move_to_end(name)
        self.hits += 1
        return item

    def peek(self, name: ContentName) -> ContentItem | None:
        return self._items.get(name)

    def put(self, item: ContentItem) -> ContentName | None:
        """Insert or refresh as most recent; returns the evicted name if any."""
        name = item.name
        if name in self._items:
            self._items[name] = item
            self._items.move_to_end(name)
            return None
        self._items[name] = item
        if self.capacity is not None and len(self._items) > self.capacity:
            evicted, _ = self._items.popitem(last=False)
            return evicted
        return None

    def names(self) -> list[ContentName]:
        """Names from least to most recently used."""
        return list(self._items)

    def hit_ratio(self) -> float | None:
        """hits/(hits+misses), or None before any lookup."""
        total = self.hits + self.misses
        if total == 0:
            return None
        return self.hits / total


class Catalog:
    """The fixed content universe held by the edge server."""

    def __init__(self, items: list[ContentItem]) -> None:
        if not items:
            raise ValueError("catalog needs at least one item")
        self._by_name: dict[ContentName, ContentItem] = {}
        for item in items:
            if item.name in self._by_name:
                raise ValueError(f"duplicate catalog name: {item.name}")
            self._by_name[item.name] = item
        self.items = list(items)

    def __len__(self) -> int:
        return len(self.items)

    def __contains__(self, name: ContentName) -> bool:
        return name in self._by_name

    def lookup(self, name: ContentName) -> ContentItem:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownContent(str(name)) from None

    def names(self) -> list[ContentName]:
        return [item.name for item in self.items]

    @classmethod
    def default(
        cls, size: int = 10, payload_bits: int = 2000, prefix: str = "traffic"
    ) -> "Catalog":
        """Catalog of /<prefix>/1 .. /<prefix>/<size>, uniform payload."""
        return cls(
            [
                ContentItem(ContentName((prefix, str(i + 1))), payload_bits)
                for i in range(size)
            ]
        )
