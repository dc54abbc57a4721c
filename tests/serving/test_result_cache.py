"""Tests for the tiered result caches and stream invalidation."""

import pytest

from repro.errors import ConfigurationError
from repro.serving import HotListCache, InvalidationBus, ResultCache
from repro.utils.clock import SimClock


def cache_with_clock(ttl=30.0, capacity=10):
    clock = SimClock()
    return ResultCache(clock.now, ttl=ttl, capacity=capacity), clock


class TestFreshness:
    def test_fresh_hit_within_ttl(self):
        cache, clock = cache_with_clock(ttl=10.0)
        cache.put("k", ["a"], tags=(("user", "u1"),))
        assert cache.get("k") == ["a"]
        clock.advance(9.9)
        assert cache.get("k") == ["a"]
        assert cache.stats()["hits"] == 2

    def test_expired_entry_misses_but_serves_stale(self):
        cache, clock = cache_with_clock(ttl=10.0)
        cache.put("k", ["a"])
        clock.advance(11.0)
        assert cache.get("k") is None
        assert cache.get("k", allow_stale=True) == ["a"]
        assert cache.stats()["stale_hits"] == 1

    def test_results_are_copied_not_aliased(self):
        cache, __ = cache_with_clock()
        stored = ["a", "b"]
        cache.put("k", stored)
        got = cache.get("k")
        got.append("mutated")
        assert cache.get("k") == ["a", "b"]


class TestStreamInvalidation:
    def test_invalidation_stales_exactly_the_tagged_entries(self):
        cache, __ = cache_with_clock()
        cache.put("q1", ["a"], tags=(("user", "u1"), ("item", "i1")))
        cache.put("q2", ["b"], tags=(("user", "u2"),))
        cache.on_invalidation("item", "i1")
        assert cache.get("q1") is None  # staled
        assert cache.get("q1", allow_stale=True) == ["a"]  # still present
        assert cache.get("q2") == ["b"]  # untouched
        assert cache.stats()["invalidations"] == 1

    def test_unknown_tag_is_a_no_op(self):
        cache, __ = cache_with_clock()
        cache.put("q1", ["a"], tags=(("user", "u1"),))
        cache.on_invalidation("item", "never-seen")
        assert cache.get("q1") == ["a"]

    def test_refill_after_invalidation_serves_fresh_again(self):
        cache, __ = cache_with_clock()
        cache.put("q1", ["old"], tags=(("user", "u1"),))
        cache.on_invalidation("user", "u1")
        cache.put("q1", ["new"], tags=(("user", "u1"),))
        assert cache.get("q1") == ["new"]
        cache.on_invalidation("user", "u1")
        assert cache.get("q1") is None

    def test_bus_delivers_to_subscribed_cache(self):
        clock = SimClock()
        cache = ResultCache(clock.now)
        bus = InvalidationBus()
        bus.subscribe(cache.on_invalidation)
        cache.put("q", ["a"], tags=(("group", "male"),))
        bus.publish("group", "male")
        assert cache.get("q") is None
        assert bus.published == 1 and bus.delivered == 1
        assert bus.by_kind == {"group": 1}


class TestEviction:
    def test_lru_eviction_at_capacity(self):
        cache, __ = cache_with_clock(capacity=2)
        cache.put("a", [1], tags=(("user", "ua"),))
        cache.put("b", [2])
        cache.get("a")  # a is now most-recent
        cache.put("c", [3])
        assert cache.get("b") is None
        assert cache.get("a") == [1]
        assert cache.stats()["evictions"] == 1

    def test_evicted_entries_leave_no_tag_residue(self):
        cache, __ = cache_with_clock(capacity=1)
        cache.put("a", [1], tags=(("user", "ua"),))
        cache.put("b", [2], tags=(("user", "ua"),))
        assert len(cache) == 1
        cache.on_invalidation("user", "ua")  # must not resurrect "a"
        assert cache.get("a", allow_stale=True) is None
        assert cache.stats()["invalidations"] == 1  # only "b" staled

    def test_overwrite_replaces_tags(self):
        cache, __ = cache_with_clock()
        cache.put("q", ["v1"], tags=(("item", "i1"),))
        cache.put("q", ["v2"], tags=(("item", "i2"),))
        cache.on_invalidation("item", "i1")
        assert cache.get("q") == ["v2"]
        cache.on_invalidation("item", "i2")
        assert cache.get("q") is None

    def test_invalid_configuration(self):
        clock = SimClock()
        with pytest.raises(ConfigurationError):
            ResultCache(clock.now, ttl=0)
        with pytest.raises(ConfigurationError):
            ResultCache(clock.now, capacity=0)


class TestHotListCache:
    def test_ttl_and_group_invalidation(self):
        clock = SimClock()
        cache = HotListCache(clock.now, ttl=5.0)
        cache.put("male", {"i1": 2.0})
        assert cache.get("male") == {"i1": 2.0}
        cache.on_invalidation("group", "male")
        assert cache.get("male") is None
        cache.put("male", {"i1": 3.0})
        clock.advance(6.0)
        assert cache.get("male") is None  # TTL backstop

    def test_non_group_kinds_ignored(self):
        clock = SimClock()
        cache = HotListCache(clock.now)
        cache.put("male", {"i1": 2.0})
        cache.on_invalidation("item", "male")
        assert cache.get("male") == {"i1": 2.0}


class TestTagIndex:
    def test_index_names_only_live_keys_after_evictions_and_re_puts(self):
        cache, __ = cache_with_clock(capacity=8)
        for round_ in range(200):
            key = f"q{round_ % 23}"
            tags = (("user", f"u{round_ % 23}"), ("item", f"i{round_ % 5}"))
            cache.put(key, [round_], tags=tags)
        assert cache.stats()["evictions"] > 0
        indexed = set().union(*cache._by_tag.values())
        assert indexed == set(cache._entries)
        for key, entry in cache._entries.items():
            for tag in entry.tags:
                assert key in cache._by_tag[tag]
        # a re-put under new tags leaves nothing behind under the old ones
        key = next(iter(cache._entries))
        old_tags = cache._entries[key].tags
        cache.put(key, ["x"], tags=(("user", "other"),))
        for tag in old_tags:
            assert key not in cache._by_tag.get(tag, ())
        assert cache._by_tag[("user", "other")] == {key}

    def test_invalidation_after_churn_stales_exactly_the_tagged(self):
        cache, __ = cache_with_clock(capacity=8)
        for round_ in range(200):
            cache.put(f"q{round_ % 23}", [round_],
                      tags=(("item", f"i{round_ % 5}"),))
        tagged = {key for key, entry in cache._entries.items()
                  if ("item", "i3") in entry.tags}
        assert tagged
        cache.on_invalidation("item", "i3")
        stale = {key for key, entry in cache._entries.items() if entry.stale}
        assert stale == tagged
        assert cache.stats()["invalidations"] == len(tagged)
