"""Unit tests for the repro.cache core library (eviction, accounting)."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.cache import Cache


# ------------------------------------------------------------- eviction
def test_lru_evicts_least_recently_used():
    cache = Cache("c", 3.0)
    for key in "abc":
        cache.put(key, key, 1.0)
    cache.lookup("a")  # refresh a; b is now LRU
    cache.put("d", "d", 1.0)
    assert "b" not in cache
    assert all(k in cache for k in "acd")


# ------------------------------------------------------------- accounting
def test_byte_accounting_and_eviction_loop():
    cache = Cache("c", 10.0)
    cache.put("a", 1, 4.0)
    cache.put("b", 2, 4.0)
    assert cache.bytes_used == 8.0
    cache.put("big", 3, 5.0)  # needs 3 MB freed -> evicts until it fits
    assert cache.bytes_used <= 10.0
    assert "big" in cache
    assert cache.stats.evictions >= 1


def test_put_refresh_in_place_updates_size():
    cache = Cache("c", 10.0)
    cache.put("a", 1, 4.0)
    assert cache.put("a", 2, 6.0)  # same key, larger entry
    assert cache.bytes_used == 6.0
    assert len(cache) == 1
    assert cache.get("a") == 2
    assert cache.stats.insertions == 1  # a refresh is not an insertion


def test_admission_rejects_oversized_entries():
    cache = Cache("c", 10.0)
    assert not cache.put("big", 1, 6.0)  # > 50% of capacity
    assert cache.stats.rejected == 1
    assert cache.bytes_used == 0.0
    assert cache.put("ok", 1, 5.0)


def test_entry_larger_than_capacity_rejected():
    cache = Cache("c", 4.0)
    assert not cache.put("huge", 1, 8.0)
    assert cache.stats.rejected == 1


def test_lookup_distinguishes_cached_none_from_miss():
    cache = Cache("c", 4.0)
    cache.put("hole", None, 0.5)
    hit, value = cache.lookup("hole")
    assert hit and value is None
    hit, value = cache.lookup("absent")
    assert not hit
    assert cache.stats.hits == 1 and cache.stats.misses == 1


def test_contains_does_not_touch_stats():
    cache = Cache("c", 4.0)
    cache.put("a", 1, 1.0)
    assert "a" in cache and "b" not in cache
    assert cache.stats.lookups == 0


def test_invalidate_and_clear():
    cache = Cache("c", 4.0)
    cache.put("a", 1, 1.0)
    cache.put("b", 2, 1.0)
    assert cache.invalidate("a")
    assert not cache.invalidate("a")  # already gone
    assert cache.bytes_used == 1.0
    assert cache.clear() == 1
    assert cache.bytes_used == 0.0 and len(cache) == 0
    assert cache.stats.invalidations == 2


def test_resize_down_evicts_to_new_capacity():
    cache = Cache("c", 8.0)
    for i in range(8):
        cache.put(i, i, 1.0)
    cache.resize(3.0)
    assert cache.bytes_used <= 3.0
    assert len(cache) == 3
    with pytest.raises(ValueError):
        cache.resize(0.0)


def test_stats_hit_rate_and_dict():
    cache = Cache("c", 4.0)
    cache.put("a", 1, 1.0)
    cache.lookup("a")
    cache.lookup("nope")
    assert cache.stats.hit_rate == pytest.approx(0.5)
    d = cache.to_dict()
    assert d["name"] == "c" and d["entries"] == 1
    assert d["hits"] == 1 and d["misses"] == 1


# ------------------------------------------------------------- statistics
def test_cache_statistics_live_in_cache_stats_only():
    """A cache counts each event once, in its ``CacheStats``: it is
    handed no environment and records nothing in a metrics registry (the
    tuner publishes the ``cache.<name>.*`` series from these numbers)."""
    cache = Cache("tier", 4.0)
    cache.put("a", 1, 1.0)
    cache.lookup("a")
    cache.lookup("miss")
    cache.invalidate("a")
    stats = cache.stats
    assert (stats.hits, stats.misses, stats.insertions,
            stats.invalidations) == (1, 1, 1, 1)
    report = cache.to_dict()
    assert (report["hits"], report["misses"], report["insertions"],
            report["invalidations"]) == (1, 1, 1, 1)
    assert report["bytes_mb"] == 0.0 and report["capacity_mb"] == 4.0


def test_cache_without_env_keeps_working():
    cache = Cache("bare", 4.0)  # pure library use
    cache.put("a", 1, 1.0)
    assert cache.get("a") == 1


# ------------------------------------------------------------- reference model
class ListLru:
    """The reference: a list of ``[key, value, size]`` rows, least
    recently used first, and the counters ``CacheStats`` keeps."""

    def __init__(self, capacity):
        self.capacity = capacity
        self.rows = []
        self.n = dict.fromkeys(("hits", "misses", "evictions", "insertions",
                                "rejected", "invalidations"), 0)

    def _row(self, key):
        return next((row for row in self.rows if row[0] == key), None)

    def _fit(self, incoming=0.0):
        while self.rows and sum(r[2] for r in self.rows) + incoming > self.capacity:
            self.rows.pop(0)
            self.n["evictions"] += 1

    def lookup(self, key):
        row = self._row(key)
        if row is None:
            self.n["misses"] += 1
            return False, None
        self.n["hits"] += 1
        self.rows.remove(row)
        self.rows.append(row)
        return True, row[1]

    def put(self, key, value, size):
        row = self._row(key)
        if row is not None:  # refresh: new value and size, most recent
            self.rows.remove(row)
            self.rows.append([key, value, size])
            self._fit()
            return True
        if size > self.capacity / 2:
            self.n["rejected"] += 1
            return False
        self._fit(size)
        self.rows.append([key, value, size])
        self.n["insertions"] += 1
        return True

    def invalidate(self, key):
        row = self._row(key)
        if row is None:
            return False
        self.rows.remove(row)
        self.n["invalidations"] += 1
        return True

    def resize(self, capacity):
        self.capacity = capacity
        self._fit()

    def clear(self):
        self.n["invalidations"] += len(self.rows)
        self.rows = []


_KEYS = st.integers(0, 5)
_SIZES = st.sampled_from([0.5, 1.0, 2.0, 3.0, 5.0])
_OPS = st.one_of(
    st.tuples(st.just("put"), _KEYS, _SIZES),
    st.tuples(st.just("lookup"), _KEYS),
    st.tuples(st.just("get"), _KEYS),
    st.tuples(st.just("invalidate"), _KEYS),
    st.tuples(st.just("resize"), st.sampled_from([2.0, 4.0, 8.0])),
    st.tuples(st.just("clear")),
)


@settings(max_examples=200, deadline=None)
@given(st.lists(_OPS, max_size=60))
@example([("put", 0, 3.0), ("put", 1, 5.0), ("lookup", 1)])  # 5 > 6 / 2
def test_cache_is_the_list_lru_reference_model(ops):
    """Any stream of put (incl. refresh at a new size) / lookup / get /
    invalidate / resize / clear leaves ``Cache`` with exactly the keys,
    bytes and counters of the list-based LRU above — the oversized-entry
    rule (``size > capacity / 2`` is rejected, not cached) included."""
    cache, model = Cache("c", 6.0), ListLru(6.0)
    for step, (op, *args) in enumerate(ops):
        if op == "put":
            key, size = args
            assert cache.put(key, step, size) == model.put(key, step, size)
        elif op == "lookup":
            assert cache.lookup(*args) == model.lookup(*args)
        elif op == "get":
            assert cache.get(*args) == model.lookup(*args)[1]
        elif op == "invalidate":
            assert cache.invalidate(*args) == model.invalidate(*args)
        elif op == "resize":
            cache.resize(*args)
            model.resize(*args)
        else:
            assert cache.clear() == len(model.rows)
            model.clear()
        assert list(cache._entries) == [row[0] for row in model.rows]
        assert cache.bytes_used == pytest.approx(sum(r[2] for r in model.rows))
        stats = cache.stats.to_dict()
        assert {name: stats[name] for name in model.n} == model.n

