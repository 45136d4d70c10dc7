import random
import time

import pytest
from hypothesis import given, settings, strategies as st

from irtime import CacheConfig, CacheModel
from irtime.errors import InvalidConfigError


class BruteForceLru:
    """Independent reference: per-set dict of tag -> (timestamp, dirty), the
    least recently touched tag evicted on a full-set miss.  Shares no code
    with CacheModel on purpose."""

    def __init__(self, cache_size, line_size, assoc):
        self.line = line_size
        self.sets = cache_size // (line_size * assoc)
        self.assoc = assoc
        self.mem = [dict() for _ in range(self.sets)]
        self.clock = 0

    def access(self, addr, is_store):
        self.clock += 1
        lineno = addr // self.line
        idx = lineno % self.sets
        tag = lineno // self.sets
        ways = self.mem[idx]
        evicted_dirty = False
        if tag in ways:
            _, dirty = ways[tag]
            ways[tag] = (self.clock, dirty or is_store)
            return True, False
        if len(ways) >= self.assoc:
            victim = min(ways, key=lambda t: ways[t][0])
            evicted_dirty = ways[victim][1]
            del ways[victim]
        ways[tag] = (self.clock, is_store)
        return False, evicted_dirty


def test_default_geometry():
    cfg = CacheConfig()
    assert cfg.cache_size == 16 * 1024
    assert cfg.line_size == 32
    assert cfg.associativity == 2
    assert cfg.set_count == 256


def test_config_validation():
    with pytest.raises(InvalidConfigError):
        CacheConfig(cache_size=0).validate()
    with pytest.raises(InvalidConfigError):
        CacheConfig(line_size=48).validate()  # not a power of two
    with pytest.raises(InvalidConfigError):
        CacheConfig(cache_size=100, line_size=32, associativity=2).validate()
    with pytest.raises(InvalidConfigError):
        CacheConfig(write_policy="write-through").validate()
    with pytest.raises(InvalidConfigError):
        CacheConfig(replacement="fifo").validate()


def test_pencil_trace():
    # hand-walked sequence on the default geometry: addresses 0 and 8 share
    # line 0; 8192 and 16384 map to set 0 with different tags; the fifth
    # access (0 again) misses because 0 was the LRU victim of the fourth.
    cache = CacheModel(CacheConfig())
    outcomes = [cache.access(a, "load").hit for a in (0, 8, 8192, 16384, 0)]
    assert outcomes == [False, True, False, False, False]


def test_store_marks_dirty_and_eviction_reports_it():
    # 3 tags into a 2-way set: the dirty line comes back out
    cache = CacheModel(CacheConfig())
    span = 32 * 256
    assert not cache.access(0, "store").hit
    assert not cache.access(span, "load").hit
    out = cache.access(2 * span, "load")
    assert not out.hit
    assert out.evicted_dirty


def test_clean_eviction_not_dirty():
    cache = CacheModel(CacheConfig())
    span = 32 * 256
    cache.access(0, "load")
    cache.access(span, "load")
    out = cache.access(2 * span, "load")
    assert not out.hit and not out.evicted_dirty


def test_store_hit_after_load_miss():
    cache = CacheModel(CacheConfig())
    assert not cache.access(64, "load").hit
    assert cache.access(64, "store").hit
    # dirty now; evict via two other tags in the same set
    span = 32 * 256
    cache.access(64 + span, "load")
    out = cache.access(64 + 2 * span, "load")
    assert out.evicted_dirty


def test_reset_forgets_everything():
    cache = CacheModel(CacheConfig())
    cache.access(0, "load")
    assert cache.access(0, "load").hit
    cache.reset()
    assert not cache.access(0, "load").hit


def test_lru_order_within_set():
    cache = CacheModel(CacheConfig())
    span = 32 * 256
    cache.access(0, "load")        # tag 0
    cache.access(span, "load")     # tag 1
    cache.access(0, "load")        # touch tag 0, tag 1 becomes LRU
    cache.access(2 * span, "load")  # evicts tag 1
    assert cache.access(0, "load").hit
    assert not cache.access(span, "load").hit


def test_random_equivalence_against_brute_force():
    rng = random.Random(1234)
    cfg = CacheConfig()
    cache = CacheModel(cfg)
    ref = BruteForceLru(cfg.cache_size, cfg.line_size, cfg.associativity)
    start = time.perf_counter()
    for i in range(10_000):
        # cluster addresses so sets actually fill and evict
        addr = rng.randrange(0, 4 * cfg.cache_size)
        is_store = rng.random() < 0.3
        got = cache.access(addr, "store" if is_store else "load")
        want_hit, want_dirty = ref.access(addr, is_store)
        assert got.hit == want_hit, f"access {i} at {addr:#x}"
        assert got.evicted_dirty == want_dirty, f"access {i} at {addr:#x}"
    assert time.perf_counter() - start < 1.0


def test_random_equivalence_odd_geometry():
    rng = random.Random(99)
    cfg = CacheConfig(cache_size=1024, line_size=16, associativity=4)
    cfg.validate()
    cache = CacheModel(cfg)
    ref = BruteForceLru(1024, 16, 4)
    for _ in range(5_000):
        addr = rng.randrange(0, 8 * 1024)
        is_store = rng.random() < 0.5
        got = cache.access(addr, "store" if is_store else "load")
        want_hit, want_dirty = ref.access(addr, is_store)
        assert (got.hit, got.evicted_dirty) == (want_hit, want_dirty)


def test_direct_mapped_equivalence():
    rng = random.Random(7)
    cfg = CacheConfig(cache_size=512, line_size=32, associativity=1)
    cache = CacheModel(cfg)
    ref = BruteForceLru(512, 32, 1)
    for _ in range(3_000):
        addr = rng.randrange(0, 4096)
        got = cache.access(addr, "load")
        want_hit, _ = ref.access(addr, False)
        assert got.hit == want_hit


@st.composite
def geometries_and_streams(draw):
    """A valid geometry (power-of-two line, 1-8 ways, 1-64 sets) and a stream
    of loads and stores that keeps up to ways + 2 tags in play in at most
    three sets, so that sets fill, hit, evict and write back."""
    line = 1 << draw(st.integers(0, 7))
    ways = draw(st.integers(1, 8))
    sets = draw(st.integers(1, 64))
    hot = draw(st.lists(st.integers(0, sets - 1), min_size=1, max_size=3, unique=True))
    access = st.tuples(st.integers(0, ways + 1), st.sampled_from(hot),
                       st.integers(0, line - 1), st.booleans())
    stream = [((tag * sets + index) * line + offset, is_store) for tag, index, offset, is_store
              in draw(st.lists(access, min_size=10, max_size=300))]
    return CacheConfig(cache_size=line * ways * sets, line_size=line, associativity=ways), stream


@settings(max_examples=200, deadline=None)
@given(geometries_and_streams())
def test_cache_matches_brute_force_on_random_geometries(case):
    cfg, stream = case
    cache = CacheModel(cfg)
    ref = BruteForceLru(cfg.cache_size, cfg.line_size, cfg.associativity)
    for addr, is_store in stream:
        got = cache.access(addr, "store" if is_store else "load")
        assert (got.hit, got.evicted_dirty) == ref.access(addr, is_store), \
            f"{cfg} at {addr:#x}"
