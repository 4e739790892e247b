"""Small bounded LRU cache used by the synthesis engine's memo layers.

Python's ``functools.lru_cache`` memoizes *functions*; the engine needs
an explicit mapping it can key by structural fingerprints, clear between
operating points, and share across evaluation contexts — hence this
minimal dict-backed implementation (dicts preserve insertion order, so
moving a key to the end on access gives LRU eviction for free).
"""

from __future__ import annotations

from typing import Generic, Iterator, TypeVar

__all__ = ["HashedKey", "LRUCache"]

K = TypeVar("K")
V = TypeVar("V")


class HashedKey:
    """A cache key wrapping a value with its hash precomputed.

    Solution fingerprints are large nested tuples; hashing one walks the
    whole structure.  The cost cache looks the same fingerprint up many
    times per candidate-pricing round (pricing, gain attribution, the
    breakdown store), so the key object computes the hash once at
    construction and every dict operation afterwards reuses it.
    """

    __slots__ = ("value", "_hash")

    def __init__(self, value: tuple):
        self.value = value
        self._hash = hash(value)

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if isinstance(other, HashedKey):
            return self._hash == other._hash and self.value == other.value
        return NotImplemented

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"HashedKey(hash={self._hash})"


class LRUCache(Generic[K, V]):
    """A mapping bounded to ``maxsize`` entries with LRU eviction.

    ``maxsize <= 0`` disables storage entirely (every lookup misses),
    which is how the cost cache is switched off for A/B comparisons.
    """

    _MISSING = object()

    def __init__(self, maxsize: int):
        self.maxsize = maxsize
        self._data: dict[K, V] = {}
        self.hits = 0
        self.misses = 0

    def get(self, key: K, default: V | None = None) -> V | None:
        """Look up ``key``, refreshing its recency; counts a hit or miss."""
        value = self._data.get(key, self._MISSING)
        if value is self._MISSING:
            self.misses += 1
            return default
        # Refresh recency: move the key to the end of insertion order.
        del self._data[key]
        self._data[key] = value  # type: ignore[assignment]
        self.hits += 1
        return value  # type: ignore[return-value]

    def peek(self, key: K, default: V | None = None) -> V | None:
        """Look up ``key`` without touching recency or the hit/miss
        counters (used by batch pricing, which must not perturb the
        cache statistics of the accounting pass)."""
        return self._data.get(key, default)

    def put(self, key: K, value: V) -> None:
        """Insert ``key``, evicting the least recently used entry if full."""
        if self.maxsize <= 0:
            return
        if key in self._data:
            del self._data[key]
        elif len(self._data) >= self.maxsize:
            self._data.pop(next(iter(self._data)))
        self._data[key] = value

    def __getitem__(self, key: K) -> V:
        value = self.get(key, self._MISSING)  # type: ignore[arg-type]
        if value is self._MISSING:
            raise KeyError(key)
        return value  # type: ignore[return-value]

    def __setitem__(self, key: K, value: V) -> None:
        self.put(key, value)

    def discard(self, key: K) -> None:
        """Drop ``key`` if present (no counters touched)."""
        self._data.pop(key, None)

    def clear(self) -> None:
        """Drop all entries (hit/miss counters are preserved)."""
        self._data.clear()

    def __contains__(self, key: K) -> bool:
        return key in self._data

    def __len__(self) -> int:
        return len(self._data)

    def __iter__(self) -> Iterator[K]:
        return iter(self._data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LRUCache({len(self._data)}/{self.maxsize}, "
            f"hits={self.hits}, misses={self.misses})"
        )
