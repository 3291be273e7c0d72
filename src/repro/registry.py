"""A weak-keyed, bounded sharing registry (one pattern, one home).

Several layers share expensive derived objects per *owner*: compiled
instances per machine, materialized certificate spaces per space.  They
all need the same shape of registry -- weak in the owner (so a dead
machine or space releases everything derived from it), bounded per
owner with FIFO eviction (so long sweeps over many graphs cannot grow
memory without limit), and degrading gracefully to "build a fresh one"
when the owner does not support weak references.

This module is dependency-free on purpose: it sits below both the engine
and the hierarchy layers, so either can import it without cycles.
"""

from __future__ import annotations

from typing import Callable, Dict, Hashable, TypeVar
from weakref import WeakKeyDictionary

Value = TypeVar("Value")


class WeakSharedRegistry:
    """``owner -> {key: value}`` with weak owners and a per-owner FIFO bound.

    Parameters
    ----------
    limit:
        Maximum number of entries kept per owner; inserting beyond it
        evicts the oldest entry (insertion order).
    """

    __slots__ = ("limit", "_registry")

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("limit must be positive")
        self.limit = limit
        self._registry: "WeakKeyDictionary[object, Dict[Hashable, object]]" = (
            WeakKeyDictionary()
        )

    def get_or_build(
        self, owner: object, key: Hashable, build: Callable[[], Value]
    ) -> Value:
        """The cached value for ``(owner, key)``, building and caching on miss.

        Owners that cannot be weakly referenced are not cached: *build* is
        simply called, so callers never need a separate fallback path.
        """
        try:
            per_owner = self._registry.setdefault(owner, {})
        except TypeError:
            return build()
        value = per_owner.get(key)
        if value is None:
            value = build()
            while len(per_owner) >= self.limit:
                per_owner.pop(next(iter(per_owner)))
            per_owner[key] = value
        return value

    def __repr__(self) -> str:
        return f"WeakSharedRegistry(owners={len(self._registry)}, limit={self.limit})"
