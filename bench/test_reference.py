"""Hand-worked cases for the benchmark's reference cache and predictor.

Run with `python3 -m pytest bench/test_reference.py`.
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from reference import ReferenceLru, ReferenceTwoBit  # noqa: E402


def test_lru_two_way_set_conflicts():
    # 4 sets of 2 ways, 16-byte lines: addresses 0, 64 and 128 share set 0.
    c = ReferenceLru(cache_size=128, line_size=16, associativity=2)
    c.access(0, False)      # miss, set 0 = [0]
    c.access(4, False)      # same line: hit
    c.access(64, True)      # miss, set 0 = [0, 64*], 64 dirty
    c.access(0, False)      # hit, 0 becomes most recent
    c.access(128, False)    # miss, evicts 64 (LRU), which is dirty
    c.access(64, False)     # miss, evicts 0 (clean)
    assert c.counts == {"load_hit": 2, "load_miss": 3, "store_hit": 0,
                        "store_miss": 1, "dirty_evictions": 1}


def test_lru_store_hit_marks_line_dirty():
    c = ReferenceLru(cache_size=64, line_size=16, associativity=1)
    c.access(0, False)      # load miss, clean
    c.access(8, True)       # store hit, now dirty
    c.access(64, False)     # same set, evicts the dirty line
    c.access(0, False)      # miss again, evicts clean 64
    assert c.counts == {"load_hit": 0, "load_miss": 3, "store_hit": 1,
                        "store_miss": 0, "dirty_evictions": 1}


def test_lru_sequential_walk_one_miss_per_line():
    c = ReferenceLru(cache_size=16384, line_size=32, associativity=2)
    for i in range(64):     # 64 i32 = 256 bytes = 8 lines
        c.access(4 * i, False)
    assert c.counts["load_miss"] == 8 and c.counts["load_hit"] == 56


def test_two_bit_back_edge_from_weakly_not_taken():
    p = ReferenceTwoBit()
    outcomes = [True] * 9 + [False]   # a loop of 10 iterations
    for t in outcomes:
        p.branch("loop", t)
    # WNT->WT miss, WT->ST hit, 7 hits in ST, final not-taken miss.
    assert (p.hits, p.misses) == (8, 2)
    assert p.states["loop"] == 2      # weakly-taken after the exit


def test_two_bit_alternating_pattern_and_separate_sites():
    p = ReferenceTwoBit()
    for t in (True, False, True, False):
        p.branch("a", t)
    # WNT: T miss -> WT; F miss -> WNT; T miss -> WT; F miss -> WNT.
    assert (p.hits, p.misses) == (0, 4)
    p.branch("b", False)              # fresh site at WNT predicts not-taken
    assert (p.hits, p.misses) == (1, 4)
    assert p.states == {"a": 1, "b": 0}


def test_two_bit_saturates():
    p = ReferenceTwoBit(initial=3)
    p.branch("s", True)
    assert p.states["s"] == 3
    p.branch("s", False)
    p.branch("s", False)
    p.branch("s", False)
    p.branch("s", False)
    # ST: T hit; F miss -> WT; F miss -> WNT; F hit -> SNT; F hit.
    assert p.states["s"] == 0 and (p.hits, p.misses) == (3, 2)
