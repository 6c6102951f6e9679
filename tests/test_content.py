"""Content names, the catalog, and LRU store semantics."""

import pytest
from hypothesis import given, strategies as st

from vcachesim.content import (
    Catalog,
    ContentItem,
    ContentName,
    LruStore,
    MalformedName,
    UnknownContent,
    parse_name,
)


def name(text):
    return parse_name(text)


def item(text, bits=2000):
    return ContentItem(name(text), bits)


# -- names ---------------------------------------------------------------------


def test_parse_and_render_round_trip():
    n = parse_name("/traffic/7")
    assert n.segments == ("traffic", "7")
    assert str(n) == "/traffic/7"
    assert parse_name(str(n)) == n


def test_single_segment_name():
    assert str(parse_name("/maps")) == "/maps"


def test_malformed_names_rejected():
    for bad in ("", "traffic/7", "/", "//", "/a//b"):
        with pytest.raises(MalformedName):
            parse_name(bad)
    with pytest.raises(MalformedName):
        ContentName(())
    with pytest.raises(MalformedName):
        ContentName(("a", ""))
    with pytest.raises(MalformedName):
        ContentName(("a/b",))


def test_names_are_hashable_value_objects():
    assert parse_name("/a/b") == ContentName(("a", "b"))
    assert len({parse_name("/x"), parse_name("/x")}) == 1


def test_content_item_requires_positive_payload():
    with pytest.raises(ValueError):
        ContentItem(name("/a"), 0)
    with pytest.raises(ValueError):
        ContentItem(name("/a"), -5)


# -- LRU store -----------------------------------------------------------------


def test_lru_evicts_least_recently_used():
    store = LruStore(capacity=2)
    store.put(item("/a"))
    store.put(item("/b"))
    assert store.get(name("/a")) is not None  # /a becomes most recent
    evicted = store.put(item("/c"))
    assert evicted == name("/b")
    assert name("/a") in store
    assert name("/c") in store
    assert len(store) == 2


def test_lru_get_miss_counts_and_returns_none():
    store = LruStore(capacity=2)
    assert store.get(name("/nothing")) is None
    assert len(store) == 0  # a miss stores nothing


def test_put_existing_refreshes_without_eviction():
    store = LruStore(capacity=2)
    store.put(item("/a"))
    store.put(item("/b"))
    assert store.put(item("/a", bits=2000)) is None  # refresh, no eviction
    assert store.names() == [name("/b"), name("/a")]
    evicted = store.put(item("/c"))
    assert evicted == name("/b")


def test_peek_changes_nothing():
    store = LruStore(capacity=2)
    store.put(item("/a"))
    store.put(item("/b"))
    assert store.peek(name("/a")) is not None
    assert store.peek(name("/zz")) is None
    assert store.names() == [name("/a"), name("/b")]  # order untouched


def test_names_orders_least_to_most_recent():
    store = LruStore(capacity=3)
    store.put(item("/a"))
    store.put(item("/b"))
    store.put(item("/c"))
    store.get(name("/a"))
    assert store.names() == [name("/b"), name("/c"), name("/a")]


def test_unbounded_store_never_evicts():
    store = LruStore(capacity=None)
    for i in range(1000):
        assert store.put(item(f"/n/{i}")) is None
    assert len(store) == 1000


def test_capacity_validation():
    with pytest.raises(ValueError):
        LruStore(capacity=0)
    LruStore(capacity=1)  # smallest legal cache


class ReferenceLru:
    """Brute-force model: a plain list ordered least to most recent."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.entries = []  # (name, item)

    def get(self, n):
        for i, (key, value) in enumerate(self.entries):
            if key == n:
                self.entries.append(self.entries.pop(i))
                return value
        return None

    def put(self, it):
        for i, (key, _) in enumerate(self.entries):
            if key == it.name:
                self.entries.pop(i)
                self.entries.append((it.name, it))
                return None
        self.entries.append((it.name, it))
        if self.capacity is not None and len(self.entries) > self.capacity:
            evicted, _ = self.entries.pop(0)
            return evicted
        return None

    def names(self):
        return [key for key, _ in self.entries]


@given(
    capacity=st.integers(min_value=1, max_value=8),
    ops=st.lists(
        st.tuples(st.sampled_from(["get", "put"]), st.integers(min_value=0, max_value=19)),
        max_size=200,
    ),
)
def test_lru_matches_reference_model(capacity, ops):
    store = LruStore(capacity)
    ref = ReferenceLru(capacity)
    pool = [item(f"/n/{i}", bits=100 + i) for i in range(20)]
    for op, idx in ops:
        if op == "get":
            got = store.get(pool[idx].name)
            expected = ref.get(pool[idx].name)
            assert (got is None) == (expected is None)
        else:
            assert store.put(pool[idx]) == ref.put(pool[idx])
        assert store.names() == ref.names()


# -- catalog -------------------------------------------------------------------


def test_default_catalog_names_and_payload():
    cat = Catalog.default(10, 2000, "traffic")
    assert len(cat) == 10
    assert [str(n) for n in cat.names()][:3] == ["/traffic/1", "/traffic/2", "/traffic/3"]
    assert all(cat.lookup(n).payload_bits == 2000 for n in cat.names())


def test_catalog_lookup_unknown_raises():
    cat = Catalog.default(3)
    with pytest.raises(UnknownContent):
        cat.lookup(name("/traffic/99"))


def test_catalog_rejects_duplicates_and_empty():
    with pytest.raises(ValueError):
        Catalog([item("/a"), item("/a")])
    with pytest.raises(ValueError):
        Catalog([])


def test_catalog_contains():
    cat = Catalog.default(2)
    assert name("/traffic/1") in cat
    assert name("/traffic/3") not in cat
