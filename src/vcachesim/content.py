"""Content items, the server catalog, and the LRU store.

A content name is a plain str such as /traffic/7. LruStore backs the RSU
caches; a vehicle keeps only a flag for its one wanted item. Hits and misses are not counted here: the metrics ledger
records every RSU cache lookup and derives the hit ratios.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass


@dataclass(frozen=True)
class ContentItem:
    name: str
    payload_bits: int


class LruStore:
    """Name-keyed store of at most capacity items, with least-recently-used
    eviction. get() refreshes recency; peek() does not, for checks that must
    not distort the eviction order.
    """

    def __init__(self, capacity: int) -> None:
        self.capacity = capacity
        self._items: OrderedDict[str, ContentItem] = OrderedDict()

    def __len__(self) -> int:
        return len(self._items)

    def get(self, name: str) -> ContentItem | None:
        item = self._items.get(name)
        if item is not None:
            self._items.move_to_end(name)
        return item

    def peek(self, name: str) -> ContentItem | None:
        return self._items.get(name)

    def put(self, item: ContentItem) -> str | None:
        """Insert or refresh as most recent; returns the evicted name if any."""
        items = self._items
        items[item.name] = item
        items.move_to_end(item.name)
        if len(items) > self.capacity:
            return items.popitem(last=False)[0]
        return None

    def items(self) -> list[ContentItem]:
        """Items from least to most recently used."""
        return list(self._items.values())


def catalog(size: int, payload_bits: int) -> dict[str, ContentItem]:
    """The edge server's fixed content: /traffic/1 .. /traffic/<size> by
    name, in that order, each of payload_bits."""
    items = (ContentItem(f"/traffic/{i}", payload_bits) for i in range(1, size + 1))
    return {item.name: item for item in items}
