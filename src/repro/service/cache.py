"""Thread-safe LRU caches with single-flight builds and statistics.

Both service caches (plan and annotation, see
:mod:`repro.service.service`) are instances of :class:`LRUCache`.  The
cache serves three needs the plain ``functools.lru_cache`` cannot:

* **single-flight** — when several batch-executor threads miss on the
  same key simultaneously, exactly one runs the (expensive) factory;
  the others block until the value is ready and then share it.  This
  is the build-once guard for cached compile/annotate products;
* **statistics** — hit/miss/eviction counters, exposed through
  :meth:`LRUCache.stats` and aggregated into the service statistics;
* **targeted invalidation** — :meth:`LRUCache.drop_where` removes all
  entries whose key matches a predicate (used when a graph is
  re-registered and its version bumps).

A ``capacity`` of 0 disables storage entirely: every lookup is a miss
and values are rebuilt per call — that is the "cold" configuration the
service benchmark compares against.  It changes what is *retained*,
never which algorithm computes it: the façade runs the same engine
either way.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass
from typing import (
    Any,
    Callable,
    Dict,
    Generic,
    Hashable,
    Optional,
    Tuple,
    TypeVar,
)

K = TypeVar("K", bound=Hashable)
V = TypeVar("V")


@dataclass
class CacheStats:
    """Counters for one cache (monotone; snapshot via ``as_dict``)."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Hits per lookup; 0.0 before the first lookup."""
        return self.hits / self.lookups if self.lookups else 0.0

    def as_dict(self) -> Dict[str, float]:
        return {
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate, 4),
        }


class _Pending:
    """In-flight build: followers wait on the event, leader fills it."""

    __slots__ = ("event", "value", "error")

    def __init__(self) -> None:
        self.event = threading.Event()
        self.value: object = None
        self.error: Optional[BaseException] = None


class LRUCache(Generic[K, V]):
    """A bounded mapping with LRU eviction and single-flight misses.

    All public methods are thread-safe.  Factories passed to
    :meth:`fetch` run *outside* the cache lock, so a slow build
    never blocks hits on other keys — only duplicate builds of the same
    key are serialized (and collapsed into one).
    """

    def __init__(self, capacity: int) -> None:
        if capacity < 0:
            raise ValueError(f"capacity must be >= 0, got {capacity}")
        self.capacity = capacity
        self._data: "OrderedDict[K, V]" = OrderedDict()
        self._pending: Dict[K, _Pending] = {}
        self._lock = threading.Lock()
        self.stats = CacheStats()

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def get(self, key: K) -> Optional[V]:
        """The cached value, freshened to most-recently-used; or None."""
        with self._lock:
            if key in self._data:
                self._data.move_to_end(key)
                self.stats.hits += 1
                return self._data[key]
            self.stats.misses += 1
            return None

    def put(self, key: K, value: V) -> None:
        """Insert (or refresh) an entry, evicting the LRU on overflow."""
        if self.capacity == 0:
            return
        with self._lock:
            self._store(key, value)

    def _store(self, key: K, value: V) -> None:
        # Caller holds the lock.
        if key in self._data:
            self._data.move_to_end(key)
        self._data[key] = value
        while len(self._data) > self.capacity:
            self._data.popitem(last=False)
            self.stats.evictions += 1

    def get_or_create(self, key: K, factory: Callable[[], V]) -> V:
        """Return the cached value, building it via ``factory`` on miss
        (see :meth:`fetch`)."""
        return self.fetch(key, factory)[0]

    def fetch(
        self, key: K, factory: Callable[..., V], *args: Any
    ) -> Tuple[V, bool]:
        """``(value, hit)``: the cached value, or ``factory(*args)``
        built and stored on a miss; ``hit`` is false exactly when this
        call ran the factory.  ``args`` go to the factory, so a caller
        builds no closure per lookup; a hit runs no factory code at all.

        Concurrent misses on the same key run ``factory`` exactly once
        (single-flight); a factory exception is propagated to every
        waiter and nothing is cached.  Only the building thread counts
        as a miss — followers are neither hits nor misses, they are the
        same logical build (and their ``hit`` is true: they built
        nothing).

        A disabled cache (capacity 0) does not single-flight either:
        every call is an independent miss that runs ``factory`` itself,
        so the "cold" configuration measures true per-request work.
        """
        if self.capacity == 0:
            with self._lock:
                self.stats.misses += 1
            return factory(*args), False
        data = self._data
        while True:
            with self._lock:
                try:
                    data.move_to_end(key)
                except KeyError:
                    pending = self._pending.get(key)
                    if pending is None:
                        pending = self._pending[key] = _Pending()
                        leader = True
                        self.stats.misses += 1
                    else:
                        leader = False
                else:
                    self.stats.hits += 1
                    return data[key], True
            if not leader:
                pending.event.wait()
                if pending.error is not None:
                    raise pending.error
                # A drop_where/clear may race the publication; loop to
                # re-check rather than hand out a possibly-stale value.
                return pending.value, True  # type: ignore[return-value]
            try:
                value = factory(*args)
            except BaseException as exc:
                with self._lock:
                    self._pending.pop(key, None)
                pending.error = exc
                pending.event.set()
                raise
            with self._lock:
                if self.capacity > 0:
                    self._store(key, value)
                self._pending.pop(key, None)
            pending.value = value
            pending.event.set()
            return value, False

    def drop_where(self, predicate: Callable[[K], bool]) -> int:
        """Remove every entry whose key satisfies ``predicate``.

        Returns the number of entries dropped.  In-flight builds are
        not interrupted (their keys embed the graph version, so a
        stale build can only ever be *read* through its stale key).
        """
        return self.drop_where_item(lambda k, _v: predicate(k))

    def drop_where_item(
        self, predicate: Callable[[K, V], bool]
    ) -> int:
        """Remove entries whose ``(key, value)`` satisfies ``predicate``.

        The value-aware sibling of :meth:`drop_where` — fine-grained
        invalidation inspects the cached artifact itself (e.g. a
        plan's or annotation's label footprint) instead of only the
        key.  The predicate runs under the cache lock, so it must be
        cheap and must not call back into the cache.
        """
        with self._lock:
            doomed = [
                k for k, v in self._data.items() if predicate(k, v)
            ]
            for k in doomed:
                del self._data[k]
            return len(doomed)

    def clear(self) -> None:
        """Drop every entry (statistics are kept)."""
        with self._lock:
            self._data.clear()
