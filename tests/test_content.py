"""Content names, the catalog, and LRU store semantics."""

import dataclasses

import pytest
from hypothesis import given, strategies as st

from vcachesim.content import ContentItem, LruStore, catalog
from vcachesim.scenarios import ValidationError, urban_single, validate_config


def item(name, bits=2000):
    return ContentItem(name, bits)


# -- names ---------------------------------------------------------------------


def test_names_hash_and_compare_in_c():
    # every cache, pending table and receiver index is keyed by names, so
    # they are exact str: a subclass would leave CPython's str-key fast path,
    # and a Python-level __hash__ or __eq__ would run on every lookup
    cat = catalog(3, 2000)
    for name, it in cat.items():
        assert type(name) is str and it.name is name


def test_separately_built_equal_names_are_one_store_key():
    store = LruStore(capacity=2)
    store.put(ContentItem("/traffic/7", 2000))
    other = "".join(["/traffic/", "7"])  # equal text, a distinct object
    assert store.get(other) is not None
    assert store.put(ContentItem(other, 2000)) is None  # a refresh, not a second entry
    assert len(store) == 1


def test_content_item_requires_positive_payload():
    # every item carries the config's payload_bits (catalog), so the
    # rule is validate_config's
    for bits in (0, -5):
        with pytest.raises(ValidationError, match="payload_bits must be >= 1"):
            validate_config(dataclasses.replace(urban_single(count=5), payload_bits=bits))


# -- LRU store -----------------------------------------------------------------


def test_lru_evicts_least_recently_used():
    store = LruStore(capacity=2)
    store.put(item("/a"))
    store.put(item("/b"))
    assert store.get("/a") is not None  # /a becomes most recent
    evicted = store.put(item("/c"))
    assert evicted == "/b"
    assert store.peek("/a") is not None
    assert store.peek("/c") is not None
    assert len(store) == 2


def test_lru_get_miss_counts_and_returns_none():
    store = LruStore(capacity=2)
    assert store.get("/nothing") is None
    assert len(store) == 0  # a miss stores nothing


def test_put_existing_refreshes_without_eviction():
    store = LruStore(capacity=2)
    store.put(item("/a"))
    store.put(item("/b"))
    assert store.put(item("/a", bits=2000)) is None  # refresh, no eviction
    assert store.names() == ["/b", "/a"]
    evicted = store.put(item("/c"))
    assert evicted == "/b"


def test_peek_changes_nothing():
    store = LruStore(capacity=2)
    store.put(item("/a"))
    store.put(item("/b"))
    assert store.peek("/a") is not None
    assert store.peek("/zz") is None
    assert store.names() == ["/a", "/b"]  # order untouched


def test_names_orders_least_to_most_recent():
    store = LruStore(capacity=3)
    store.put(item("/a"))
    store.put(item("/b"))
    store.put(item("/c"))
    store.get("/a")
    assert store.names() == ["/b", "/c", "/a"]
    assert store.items() == [store.peek(n) for n in store.names()]  # same order


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
    cat = catalog(10, 2000)
    assert len(cat) == 10
    assert list(cat)[:3] == ["/traffic/1", "/traffic/2", "/traffic/3"]
    assert all(it.payload_bits == 2000 for it in cat.values())


def test_catalog_contains():
    cat = catalog(2, 2000)
    assert list(cat) == ["/traffic/1", "/traffic/2"]
    assert cat["/traffic/1"].name == "/traffic/1"
    assert "/traffic/3" not in cat
