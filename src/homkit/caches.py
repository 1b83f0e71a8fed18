"""The one registry of homkit's memo tables.

Every module-level memo in homkit lives here: a named ``Table`` (a dict that
counts hits and misses) made by ``table``, or an ``lru_cache`` function
registered by reference with ``register_lru``.  The tables hold pure values
only, keyed by immutable inputs (modules, maps, canonical keys, universe
descriptions), so a hit returns what a recomputation would.
``clear_caches`` empties all of them and ``stats`` reports their sizes and
counters.
"""
from __future__ import annotations

from typing import Callable


class Table(dict):
    """A named memo table: a dict whose ``lookup`` counts hits and misses."""

    def __init__(self, name: str):
        super().__init__()
        self.name = name
        self.hits = 0
        self.misses = 0

    def lookup(self, key, compute: Callable):
        """The value stored under ``key``, computed by ``compute()`` and
        stored on a miss (nothing is stored when it raises)."""
        try:
            value = self[key]
        except KeyError:
            self.misses += 1
            value = self[key] = compute()
            return value
        self.hits += 1
        return value

    def clear(self) -> None:
        super().clear()
        self.hits = self.misses = 0


_TABLES: dict = {}     # name -> Table
_LRU: dict = {}        # name -> lru_cache-wrapped function


def _claim(name: str) -> None:
    if name in _TABLES or name in _LRU:
        raise ValueError(f"cache {name!r} is already registered")


def table(name: str) -> Table:
    """A new registered table."""
    _claim(name)
    _TABLES[name] = Table(name)
    return _TABLES[name]


def register_lru(name: str) -> Callable:
    """Decorator registering an ``lru_cache`` function under ``name``; the
    function itself is returned unchanged."""
    def register(fn: Callable) -> Callable:
        _claim(name)
        _LRU[name] = fn
        return fn
    return register


def clear_caches() -> None:
    """Empty every registered table and ``lru_cache`` and reset their
    counters.  Later calls rebuild what they need, with the same answers."""
    for t in _TABLES.values():
        t.clear()
    for fn in _LRU.values():
        fn.cache_clear()


def stats() -> dict:
    """``{name: {"entries", "hits", "misses"}}`` for every registered cache."""
    out = {name: {"entries": len(t), "hits": t.hits, "misses": t.misses}
           for name, t in _TABLES.items()}
    for name, fn in _LRU.items():
        info = fn.cache_info()
        out[name] = {"entries": info.currsize, "hits": info.hits, "misses": info.misses}
    return out
