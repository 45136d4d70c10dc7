"""Set-associative data cache model with LRU replacement.

Write-back, write-allocate: a store miss installs the line and marks it
dirty, a store hit marks it dirty, and evicting a dirty line is reported so
the caller can count write-backs.  Only hit/miss outcomes feed the feature
vector; timing is out of scope.
"""

from dataclasses import dataclass

from .errors import InvalidConfigError


@dataclass(frozen=True)
class CacheConfig:
    cache_size: int = 16384     # bytes
    line_size: int = 32         # bytes
    associativity: int = 2      # ways per set

    @property
    def set_count(self) -> int:
        return self.cache_size // (self.line_size * self.associativity)

    def __post_init__(self):
        if self.cache_size <= 0 or self.line_size <= 0 or self.associativity <= 0:
            raise InvalidConfigError("cache geometry values must be positive")
        if self.line_size & (self.line_size - 1):
            raise InvalidConfigError(f"line_size must be a power of two, got {self.line_size}")
        if self.cache_size % (self.line_size * self.associativity):
            raise InvalidConfigError(
                "cache_size must be divisible by line_size * associativity "
                f"({self.cache_size} % {self.line_size * self.associativity} != 0)"
            )


@dataclass(frozen=True)
class AccessOutcome:
    hit: bool
    evicted_dirty: bool = False


# every access has one of three outcomes; they are immutable, so each access
# returns one of these instead of building its own
_HIT = AccessOutcome(hit=True)
_CLEAN_MISS = AccessOutcome(hit=False)
_DIRTY_MISS = AccessOutcome(hit=False, evicted_dirty=True)
_OUTCOMES = (_HIT, _CLEAN_MISS, _DIRTY_MISS)   # by the code touch() returns


class CacheModel:
    """One cache instance.  Each set is a list of line numbers (address //
    line_size) in most-recently-used-first order, so the LRU victim is the
    last entry; the dirty lines of every set are kept in one `set`."""

    def __init__(self, config: CacheConfig = CacheConfig()):
        self.config = config
        self._shift = config.line_size.bit_length() - 1
        self._set_count = config.set_count
        self._assoc = config.associativity
        self._sets = [[] for _ in range(self._set_count)]
        self._dirty = set()

    def access(self, addr: int, kind: str) -> AccessOutcome:
        if addr < 0:
            raise InvalidConfigError(f"negative address {addr}")
        if kind not in ("load", "store"):
            raise InvalidConfigError(f"access kind must be 'load' or 'store', got {kind!r}")
        return _OUTCOMES[self.touch(addr, kind == "store")]

    def touch(self, addr: int, is_store: bool) -> int:
        """The LRU update for one access to a non-negative `addr`, unchecked:
        returns 0 for a hit, 1 for a clean miss, 2 for a miss that evicts a
        dirty line.  A traced run calls it only for an access that changes
        lines, or for a store to a clean line just loaded: a load of the
        line last accessed, or a store to it once dirty, changes nothing
        here."""
        line = addr >> self._shift
        ways = self._sets[line % self._set_count]
        if line in ways:
            if ways[0] != line:
                ways.remove(line)
                ways.insert(0, line)
            if is_store:
                self._dirty.add(line)
            return 0
        ways.insert(0, line)
        if is_store:
            self._dirty.add(line)
        if len(ways) > self._assoc:
            victim = ways.pop()
            if victim in self._dirty:
                self._dirty.remove(victim)
                return 2
        return 1

    def reset(self) -> None:
        for ways in self._sets:
            ways.clear()
        self._dirty.clear()
