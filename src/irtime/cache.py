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
    write_policy: str = "write-back"
    replacement: str = "lru"

    @property
    def set_count(self) -> int:
        return self.cache_size // (self.line_size * self.associativity)

    def validate(self) -> None:
        if self.cache_size <= 0 or self.line_size <= 0 or self.associativity <= 0:
            raise InvalidConfigError("cache geometry values must be positive")
        if self.line_size & (self.line_size - 1):
            raise InvalidConfigError(f"line_size must be a power of two, got {self.line_size}")
        if self.cache_size % (self.line_size * self.associativity):
            raise InvalidConfigError(
                "cache_size must be divisible by line_size * associativity "
                f"({self.cache_size} % {self.line_size * self.associativity} != 0)"
            )
        if self.write_policy != "write-back":
            raise InvalidConfigError(f"unsupported write policy {self.write_policy!r}")
        if self.replacement != "lru":
            raise InvalidConfigError(f"unsupported replacement policy {self.replacement!r}")


@dataclass(frozen=True)
class AccessOutcome:
    hit: bool
    evicted_dirty: bool = False


# every access has one of three outcomes; they are immutable, so each access
# returns one of these instead of building its own
_HIT = AccessOutcome(hit=True)
_CLEAN_MISS = AccessOutcome(hit=False)
_DIRTY_MISS = AccessOutcome(hit=False, evicted_dirty=True)


class CacheModel:
    """One cache instance.  Each set is a list of [tag, dirty] entries kept
    in most-recently-used-first order, so the LRU victim is the last entry."""

    def __init__(self, config: CacheConfig = CacheConfig()):
        config.validate()
        self.config = config
        self._sets = [[] for _ in range(config.set_count)]

    def access(self, addr: int, kind: str) -> AccessOutcome:
        if addr < 0:
            raise InvalidConfigError(f"negative address {addr}")
        if kind not in ("load", "store"):
            raise InvalidConfigError(f"access kind must be 'load' or 'store', got {kind!r}")
        cfg = self.config
        line = addr // cfg.line_size
        index = line % cfg.set_count
        tag = line // cfg.set_count
        ways = self._sets[index]
        for i, entry in enumerate(ways):
            if entry[0] == tag:
                ways.insert(0, ways.pop(i))
                if kind == "store":
                    entry[1] = True
                return _HIT
        evicted_dirty = False
        if len(ways) >= cfg.associativity:
            victim = ways.pop()
            evicted_dirty = victim[1]
        ways.insert(0, [tag, kind == "store"])
        return _DIRTY_MISS if evicted_dirty else _CLEAN_MISS

    def reset(self) -> None:
        for ways in self._sets:
            ways.clear()
