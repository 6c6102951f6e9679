"""Content names, the catalog, and LRU store semantics."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

from vcachesim.content import (
    Catalog,
    ContentItem,
    ContentName,
    LruStore,
    MalformedName,
    UnknownContent,
)
from vcachesim.scenarios import ValidationError, urban_single, validate_config


def parse_name(text):
    """The inverse of str(ContentName): only tests read names from text."""
    if not text or not text.startswith("/"):
        raise MalformedName(f"content name must start with '/': {text!r}")
    body = text[1:]
    if not body:
        raise MalformedName("empty content name")
    return ContentName(tuple(body.split("/")))


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


def test_malformed_name_reports_its_first_bad_segment():
    with pytest.raises(MalformedName, match="at least one segment"):
        ContentName(())
    with pytest.raises(MalformedName, match="may not contain '/': 'a/b'"):
        ContentName(("a/b", ""))
    with pytest.raises(MalformedName, match="empty segment"):
        ContentName(("", "a/b"))


def test_names_hash_and_compare_in_c():
    # every cache, pending table and receiver index is keyed by names, so a
    # Python-level __hash__ or __eq__ would run on every lookup
    n = ContentName(("traffic", "7"))
    assert type(n).__hash__ is str.__hash__
    assert "__eq__" not in vars(ContentName) and "__hash__" not in vars(ContentName)
    assert n == "/traffic/7" and hash(n) == hash("/traffic/7")
    assert n.segments == ("traffic", "7")
    assert ContentName(n.segments) == n


def test_separately_built_equal_names_are_one_store_key():
    store = LruStore(capacity=2)
    store.put(ContentItem(ContentName(("traffic", "7")), 2000))
    other = ContentName(("traffic", "7"))
    assert store.get(other) is not None
    assert store.put(ContentItem(other, 2000)) is None  # a refresh, not a second entry
    assert len(store) == 1


def test_names_survive_pickle_and_copy():
    n = ContentName(("traffic", "7"))
    pickled = [pickle.loads(pickle.dumps(n, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    for back in (*pickled, copy.copy(n), copy.deepcopy(n)):
        assert type(back) is ContentName
        assert back == n and back.segments == ("traffic", "7")


def test_content_item_requires_positive_payload():
    # every item carries the config's payload_bits (Catalog.default), so the
    # rule is validate_config's
    for bits in (0, -5):
        with pytest.raises(ValidationError, match="payload_bits must be >= 1"):
            validate_config(dataclasses.replace(urban_single(count=5), payload_bits=bits))


# -- LRU store -----------------------------------------------------------------


def test_lru_evicts_least_recently_used():
    store = LruStore(capacity=2)
    store.put(item("/a"))
    store.put(item("/b"))
    assert store.get(name("/a")) is not None  # /a becomes most recent
    evicted = store.put(item("/c"))
    assert evicted == name("/b")
    assert store.peek(name("/a")) is not None
    assert store.peek(name("/c")) is not None
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
    cat = Catalog.default(10, 2000, "traffic")
    assert len(cat.names()) == 10
    assert [str(n) for n in cat.names()][:3] == ["/traffic/1", "/traffic/2", "/traffic/3"]
    assert all(cat.lookup(n).payload_bits == 2000 for n in cat.names())


def test_catalog_lookup_unknown_raises():
    cat = Catalog.default(3)
    with pytest.raises(UnknownContent):
        cat.lookup(name("/traffic/99"))


def test_catalog_contains():
    cat = Catalog.default(2)
    assert cat.names() == [name("/traffic/1"), name("/traffic/2")]
    assert cat.lookup(name("/traffic/1")).name == name("/traffic/1")
    assert name("/traffic/3") not in cat.names()
