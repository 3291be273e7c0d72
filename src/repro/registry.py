"""A bounded sharing registry (one pattern, one home).

Several layers share expensive derived objects per *owner*: compiled
instances per machine, materialized certificate spaces per space.  They
all need the same shape of registry -- keyed by ``(owner, key)``, bounded
as a whole with FIFO eviction (so long sweeps over many machines and
graphs cannot grow memory without limit), and degrading gracefully to
"build a fresh one" when the owner cannot be hashed.

An entry pins its owner: a value typically references its owner (a
compiled instance keeps its machine), so a registry weak in the owner
would never release anything.  The bound alone releases dead owners'
entries, oldest first.

A registry is shared by every thread of a serving daemon (the event loop,
the compute thread, executor threads), so lookup, eviction and insertion
run under one lock; building a value does not.

This module is dependency-free on purpose: it sits below both the engine
and the hierarchy layers, so either can import it without cycles.
"""

from __future__ import annotations

import threading
from typing import Callable, Dict, Hashable, Tuple, TypeVar

Value = TypeVar("Value")


class SharedRegistry:
    """``(owner, key) -> value`` with a FIFO bound on the total entry count.

    Parameters
    ----------
    limit:
        Maximum number of entries kept over all owners; inserting beyond
        it evicts the oldest entry (insertion order).
    """

    __slots__ = ("limit", "_entries", "_lock")

    def __init__(self, limit: int) -> None:
        if limit < 1:
            raise ValueError("limit must be positive")
        self.limit = limit
        self._entries: Dict[Tuple[object, Hashable], object] = {}
        self._lock = threading.Lock()

    def get_or_build(
        self, owner: object, key: Hashable, build: Callable[[], Value]
    ) -> Value:
        """The cached value for ``(owner, key)``, building and caching on miss.

        Owners that cannot be hashed are not cached: *build* is simply
        called, so callers never need a separate fallback path.  When two
        threads build the same entry at once, both get the first one stored.
        """
        entry = (owner, key)
        entries = self._entries
        try:
            with self._lock:
                value = entries.get(entry)
        except TypeError:
            return build()
        if value is not None:
            return value
        value = build()
        with self._lock:
            stored = entries.get(entry)
            if stored is not None:
                return stored
            while len(entries) >= self.limit:
                del entries[next(iter(entries))]
            entries[entry] = value
        return value

    def __repr__(self) -> str:
        return f"SharedRegistry(entries={len(self._entries)}, limit={self.limit})"
