"""Bounded object-key deduplication (a safe stand-in for ``sys.intern``).

Repeated NDJSON field names benefit from sharing one string object per
distinct key: the interner's field cache and the kernel's key-tuple
hashing then compare mostly by pointer, and per-record key copies are
dropped as soon as they are deduplicated.  The strict tokenizer and
parser (:mod:`repro.jsonio.parser`) share their keys here; the map
phase's C decoder shares keys within each record by itself.  ``sys.intern`` gives exactly
that sharing but at process scope — and on CPython >= 3.12 interned
strings are *immortalized*, so a feed whose objects use high-cardinality
keys (UUID- or id-keyed maps) would grow a long-lived worker process
without bound, one leaked string per distinct key, across every
partition it ever handles.

:class:`KeyCache` keeps the sharing and drops the leak: a plain dict
mapping each key to its first-seen instance, capped at ``cap`` entries.
When the cap is hit the cache is cleared and re-seeded — recently hot
keys re-enter on their next occurrence, memory stays bounded, and a
pathological partition cannot poison the cache for the rest of the
worker's life.  Cached strings are ordinary objects: dropping the cache
(or clearing it) releases them.

Sharing is an optimization, never a semantic: a missed share only means
two equal strings coexist, so the clear-on-full policy (and benign races
under free-threaded builds) cannot affect results.
"""

from __future__ import annotations

__all__ = ["KeyCache", "shared_key"]

#: Default capacity.  Real-world schemas have at most a few thousand
#: distinct field names; 16k leaves an order of magnitude of headroom
#: while capping worst-case retention at a few megabytes.
DEFAULT_CAP = 16384


class KeyCache:
    """A bounded ``str -> str`` dedup table with clear-on-full eviction."""

    __slots__ = ("_cache", "_cap")

    def __init__(self, cap: int = DEFAULT_CAP) -> None:
        if cap < 1:
            raise ValueError(f"cap must be positive, got {cap}")
        self._cache: dict[str, str] = {}
        self._cap = cap

    def share(self, key: str) -> str:
        """The canonical instance of ``key`` (``==`` to it, often ``is``).

        >>> cache = KeyCache()
        >>> a = "".join(["i", "d"])  # defeat source-literal interning
        >>> cache.share(a) is a
        True
        >>> cache.share("".join(["i", "d"])) is a
        True
        """
        cache = self._cache
        cached = cache.get(key)
        if cached is not None:
            return cached
        if len(cache) >= self._cap:
            cache.clear()
        cache[key] = key
        return key

    def __len__(self) -> int:
        """Number of distinct keys currently cached."""
        return len(self._cache)


#: Process-wide bounded cache used by the tokenizer and parser, which
#: have no per-partition object to hang a cache on.
shared_key = KeyCache().share
