"""Canonical ball memoization: one verdict per isomorphic neighborhood.

The compiled core memoizes node verdicts *per instance*: two nodes of the
same graph -- or of two different graphs in one sweep -- whose dependency
balls look exactly alike still pay for two evaluations.  On the expensive
evaluation paths -- the machines without a usable compiled rule: gather
machines on the direct path (identifiers unique in the gather horizon) or
the fixpoint path (identifiers colliding there), and every other machine
on the ball-subgraph simulation path -- that is the dominant cold-path
cost: a sweep over a graph family solves the same local neighborhood over
and over.

This module shares those verdicts under a **canonical ball signature**.
The engine computes a node's verdict from nothing but

* the machine (structurally fingerprinted, so equal code shares),
* the evaluation mode (``direct`` flag: the fixpoint and simulation paths
  share ``simulate``, since both reproduce the simulator's verdicts on the
  same radius-``max_rounds`` ball) and dependency radius,
* the induced ball: labels, identifiers and internal edges, all expressed
  in *ball-local* positions, plus the center's position,
* the certificate restriction to the ball at every quantifier level,

so a SHA-256 over exactly those inputs is a sound cross-node, cross-graph,
cross-process verdict key: equal keys mean the engine would perform the
identical computation.  (Identifiers enter the signature verbatim --
machines may read identifier *values* -- so sharing happens between balls
that are literally identical after relabeling to ball positions, which is
exactly the repetition graph families and locally-unique identifier
schemes produce.)

:class:`CanonicalVerdictCache` holds the shared table.  It is attached to
compiled instances (one cache per sweep, per service compute tier,
...), consulted on per-node memo misses of the eligible paths, and
optionally backed by the persistent verdict store's node-verdict table so
isomorphic work is skipped across sessions too.
"""

from __future__ import annotations

import hashlib
import itertools
from typing import Dict, List, Optional, Tuple

#: Version tag folded into every signature: bump when the payload changes.
_SIGNATURE_VERSION = b"ball-v1\x00"


def machine_token(machine) -> str:
    """The structural fingerprint of *machine* (imported lazily).

    :mod:`repro.sweep.fingerprint` imports graph/hierarchy modules only, but
    the import is kept out of module scope so the engine package never
    drags the sweep package in at import time.
    """
    from repro.sweep.fingerprint import machine_fingerprint

    return machine_fingerprint(machine)


def node_ball_signature(instance, u: int) -> bytes:
    """The static canonical signature of node *u*'s dependency ball.

    Everything certificate-independent that the verdict computation reads:
    machine fingerprint, evaluation mode, radius, and the ball expressed in
    ball-local positions (identifiers, labels, internal edges, center).
    The dynamic part -- the certificate restriction -- is appended by
    :func:`verdict_key`.
    """
    token = getattr(instance, "_machine_token", None)
    if token is None:
        token = machine_token(instance.machine)
        instance._machine_token = token
    ball = instance.balls[u]
    local = {v: i for i, v in enumerate(ball)}
    ids_list = instance.ids_list
    labels = instance.labels
    adjacency = instance.adjacency
    edges: List[Tuple[int, int]] = []
    for i, v in enumerate(ball):
        for w in adjacency[v]:
            j = local.get(w)
            if j is not None and j > i:
                edges.append((i, j))
    payload = [
        _SIGNATURE_VERSION,
        token.encode("ascii"),
        b"direct" if instance.direct else b"simulate",
        str(instance.radius).encode("ascii"),
        str(local[u]).encode("ascii"),
        repr([(ids_list[v], labels[v]) for v in ball]).encode("utf-8", "backslashreplace"),
        repr(sorted(edges)).encode("ascii"),
    ]
    digest = hashlib.sha256()
    for piece in payload:
        digest.update(piece)
        digest.update(b"\x00")
    return digest.digest()


def verdict_key(signature: bytes, levels: int, certificates: tuple) -> str:
    """The canonical store key of one ``(ball, certificate restriction)``.

    *certificates* is one tuple per quantifier level, each holding the
    ball's certificate strings in ball order.
    """
    digest = hashlib.sha256(signature)
    digest.update(repr((levels, certificates)).encode("utf-8", "backslashreplace"))
    return "ball:" + digest.hexdigest()


class CanonicalVerdictCache:
    """A verdict table shared across nodes, instances and (optionally) sessions.

    The in-memory dict answers first; on a miss, an attached
    :class:`~repro.sweep.store.VerdictStore` is consulted through its
    node-verdict table and hits are promoted.  Fresh verdicts accumulate in
    a dirty list so callers can persist them in one bulk write
    (:meth:`flush`) or take them as records (:meth:`drain_records`).

    Not thread-safe by itself: every current holder already serializes
    evaluation (a sweep evaluates on one thread, the service compute tier
    runs under its batch lock).
    """

    __slots__ = (
        "data",
        "store",
        "max_entries",
        "hits",
        "misses",
        "store_hits",
        "store_errors",
        "puts",
        "evictions",
        "_dirty",
    )

    def __init__(self, store=None, max_entries: Optional[int] = None) -> None:
        self.data: Dict[str, bool] = {}
        self.store = store
        #: Bound on the in-memory table (``None`` = unbounded, the right
        #: choice for one sweep; long-lived holders like the service
        #: compute tier must pass a cap).  When full, the oldest
        #: (insertion-ordered) half is dropped -- store-backed entries are
        #: re-promotable, so eviction only costs a re-read.
        self.max_entries = max_entries
        self.hits = 0
        self.misses = 0
        self.store_hits = 0
        self.store_errors = 0
        self.puts = 0
        self.evictions = 0
        self._dirty: List[Tuple[str, bool]] = []

    def get(self, key: str) -> Optional[bool]:
        verdict = self.data.get(key)
        if verdict is not None:
            self.hits += 1
            return verdict
        if self.store is not None:
            # A sick store (disk trouble, injected fault) must degrade to a
            # miss, not abort the evaluation consulting this cache: the
            # engine can always recompute what the store would have served.
            try:
                stored = self.store.get_node(key)
            except Exception:  # noqa: BLE001 -- store reads are best-effort
                self.store_errors += 1
                stored = None
            if stored is not None:
                self.store_hits += 1
                self.data[key] = stored
                return stored
        self.misses += 1
        return None

    def put(self, key: str, verdict: bool) -> None:
        verdict = bool(verdict)
        if key not in self.data:
            cap = self.max_entries
            if cap is not None and len(self.data) >= cap:
                keep = len(self.data) // 2
                dropped = len(self.data) - keep
                self.data = dict(
                    itertools.islice(self.data.items(), dropped, None)
                )
                self.evictions += dropped
            self.puts += 1
            self._dirty.append((key, verdict))
        self.data[key] = verdict

    def drain_records(self) -> List[Tuple[str, bool]]:
        """Fresh ``(key, verdict)`` records since the last drain/flush."""
        records, self._dirty = self._dirty, []
        return records

    def flush(self) -> int:
        """Persist the dirty records into the attached store (if any)."""
        records = self.drain_records()
        if self.store is not None and records:
            self.store.put_node_many(records)
        return len(records)

    def hit_rate(self) -> float:
        """Fraction of lookups answered from memory or the store."""
        answered = self.hits + self.store_hits
        total = answered + self.misses
        return answered / total if total else 0.0

    def info(self) -> Dict[str, object]:
        return {
            "entries": len(self.data),
            "hits": self.hits,
            "store_hits": self.store_hits,
            "store_errors": self.store_errors,
            "misses": self.misses,
            "puts": self.puts,
            "evictions": self.evictions,
            "hit_rate": round(self.hit_rate(), 4),
        }

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return (
            f"CanonicalVerdictCache(entries={len(self.data)}, hits={self.hits}, "
            f"store_hits={self.store_hits}, misses={self.misses})"
        )
