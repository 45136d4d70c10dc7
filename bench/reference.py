"""Reference models the benchmark checks the simulator against.

They are written apart from `irtime.cache` and `irtime.branch` on purpose:
a set-associative LRU cache (write-back, write-allocate) kept as one
recency-ordered dict per set, and a per-site two-bit saturating counter
kept as an integer 0..3.  Both count what the simulator's trace counts.
"""


class ReferenceLru:
    """Counts load/store hits and misses and dirty evictions."""

    def __init__(self, cache_size=16384, line_size=32, associativity=2):
        self.line_size = line_size
        self.ways = associativity
        self.set_count = cache_size // (line_size * associativity)
        self.sets = [dict() for _ in range(self.set_count)]  # tag -> dirty, LRU first
        self.counts = {"load_hit": 0, "load_miss": 0, "store_hit": 0,
                       "store_miss": 0, "dirty_evictions": 0}

    def access(self, addr, is_store):
        line = addr // self.line_size
        ways = self.sets[line % self.set_count]
        tag = line // self.set_count
        kind = "store" if is_store else "load"
        if tag in ways:
            dirty = ways.pop(tag) or is_store
            self.counts[kind + "_hit"] += 1
        else:
            if len(ways) == self.ways:
                victim = next(iter(ways))
                if ways.pop(victim):
                    self.counts["dirty_evictions"] += 1
            dirty = is_store
            self.counts[kind + "_miss"] += 1
        ways[tag] = dirty


class ReferenceTwoBit:
    """Per-site counters: 0 strongly-not-taken .. 3 strongly-taken.
    A fresh site starts at 1 (weakly-not-taken)."""

    def __init__(self, initial=1):
        self.initial = initial
        self.states = {}
        self.hits = 0
        self.misses = 0

    def branch(self, site, taken):
        state = self.states.get(site, self.initial)
        if (state >= 2) == taken:
            self.hits += 1
        else:
            self.misses += 1
        self.states[site] = min(state + 1, 3) if taken else max(state - 1, 0)
