"""Hierarchical content names, the server catalog, and the LRU store.

LruStore backs the RSU caches; a vehicle keeps only a flag for its one
wanted item. Hits and misses are not counted here: the metrics ledger
records every RSU cache lookup and derives the hit ratios.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


class MalformedName(ValueError):
    """A content name string failed validation."""


class UnknownContent(KeyError):
    """A name was requested that the catalog does not hold."""


class ContentName(str):
    """A hierarchical name such as /traffic/7, built from its segments.

    The value is the canonical text, so hashing and equality are str's own.
    """

    __slots__ = ()  # no instance dict: a name is as immutable as its text

    def __new__(cls, segments: tuple[str, ...]) -> "ContentName":
        if not segments:
            raise MalformedName("content name needs at least one segment")
        if "" in segments or "/" in "".join(segments):  # C-level checks; the loop names the fault
            for seg in segments:
                if not seg:
                    raise MalformedName("content name has an empty segment")
                if "/" in seg:
                    raise MalformedName(f"segment may not contain '/': {seg!r}")
        return str.__new__(cls, "/" + "/".join(segments))

    @property
    def segments(self) -> tuple[str, ...]:
        return tuple(self[1:].split("/"))

    def __getnewargs__(self) -> tuple[tuple[str, ...]]:
        return (self.segments,)


@dataclass(frozen=True)
class ContentItem:
    name: ContentName
    payload_bits: int


class LruStore:
    """Name-keyed store of at most capacity items, with least-recently-used
    eviction. get() refreshes recency; peek() does not, for checks that must
    not distort the eviction order.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._items: OrderedDict[ContentName, ContentItem] = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def get(self, name: ContentName) -> ContentItem | None:
        item = self._items.get(name)
        if item is not None:
            self._items.move_to_end(name)
        return item

    def peek(self, name: ContentName) -> ContentItem | None:
        return self._items.get(name)

    def put(self, item: ContentItem) -> ContentName | None:
        """Insert or refresh as most recent; returns the evicted name if any."""
        items = self._items
        items[item.name] = item
        items.move_to_end(item.name)
        if len(items) > self.capacity:
            return items.popitem(last=False)[0]
        return None

    def names(self) -> list[ContentName]:
        """Names from least to most recently used."""
        return list(self._items)

    def items(self) -> list[ContentItem]:
        """Items from least to most recently used."""
        return list(self._items.values())


class Catalog:
    """The fixed content universe held by the edge server."""

    def __init__(self, items: list[ContentItem]) -> None:
        self._by_name = {item.name: item for item in items}

    def lookup(self, name: ContentName) -> ContentItem:
        try:
            return self._by_name[name]
        except KeyError:
            raise UnknownContent(str(name)) from None

    def names(self) -> list[ContentName]:
        return list(self._by_name)

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
