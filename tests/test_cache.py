"""Unit tests for the repro.cache core library (policies, accounting)."""

import pytest

from repro.cache import (
    ArcPolicy,
    Cache,
    LruPolicy,
    SeededRandomPolicy,
    SizeAdmission,
    make_policy,
)


# ------------------------------------------------------------- policies
def test_lru_evicts_least_recently_used():
    cache = Cache("c", 3.0, policy="lru")
    for key in "abc":
        cache.put(key, key, 1.0)
    cache.lookup("a")  # refresh a; b is now LRU
    cache.put("d", "d", 1.0)
    assert "b" not in cache
    assert all(k in cache for k in "acd")


def test_arc_keeps_frequent_keys_over_scan():
    cache = Cache("c", 4.0, policy="arc")
    for key in "ab":
        cache.put(key, key, 1.0)
    for _ in range(3):  # a, b become frequent (T2)
        cache.lookup("a")
        cache.lookup("b")
    for key in "wxyz":  # a one-pass scan of cold keys
        cache.put(key, key, 1.0)
    assert "a" in cache and "b" in cache


def test_arc_ghost_hit_adapts_p():
    policy = ArcPolicy()
    cache = Cache("c", 2.0, policy=policy)
    cache.put("a", 1, 1.0)
    cache.put("b", 1, 1.0)
    cache.put("c", 1, 1.0)  # evicts a -> B1 ghost
    assert policy.p == 0.0
    cache.put("a", 1, 1.0)  # ghost hit in B1 grows p (favor recency)
    assert policy.p > 0.0


def test_random_policy_is_seeded():
    def evict_order(seed):
        cache = Cache("c", 3.0, policy=SeededRandomPolicy(seed=seed))
        order = []
        for i in range(10):
            cache.put(i, i, 1.0)
        for i in range(10):
            if i not in cache:
                order.append(i)
        return order

    assert evict_order(7) == evict_order(7)


def test_make_policy_rejects_unknown():
    with pytest.raises(ValueError):
        make_policy("clock")
    assert isinstance(make_policy("lru"), LruPolicy)
    assert isinstance(make_policy("arc"), ArcPolicy)


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
    cache = Cache("c", 10.0, admission=SizeAdmission(max_fraction=0.5))
    assert not cache.put("big", 1, 6.0)  # > 50% of capacity
    assert cache.stats.rejected == 1
    assert cache.bytes_used == 0.0
    assert cache.put("ok", 1, 5.0)


def test_entry_larger_than_capacity_rejected():
    cache = Cache("c", 4.0, admission=lambda k, s, c: True)
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
