"""Dynamic graphs with verdict repair: the incremental-scenario subsystem.

Every workload so far treated a game instance as immutable: a new graph
meant a new :class:`~repro.engine.compiled.CompiledInstance`, a cold memo
and a from-scratch solve.  The online service's north star, though, is
serving "who wins *now*" over graphs that mutate underneath the daemon --
and the compiled core was built for exactly that repair: packed restriction
keys are maintained under single-node deltas, canonical ball signatures
name a node's computation by nothing but its local neighborhood, and the
generation counter already makes every cache rebase-safe.

:class:`MutableInstance` is the mutable layer on top.  It owns a private
compiled instance (mutation in place must not leak into other games, so
only the session's own engines run on it) and applies four delta kinds:

* :class:`EdgeInsert` / :class:`EdgeDelete` -- toggle one edge (deletions
  that would disconnect the graph are rejected; labeled graphs are
  connected by definition),
* :class:`SetLabel` -- flip one node's bit-string label,
* :class:`SetIdentifier` -- identifier churn at one node.

Each state's graph derives from the previous one
(:meth:`~repro.graphs.labeled_graph.LabeledGraph.relabel`,
:meth:`~repro.graphs.labeled_graph.LabeledGraph.with_edge`,
:meth:`~repro.graphs.labeled_graph.LabeledGraph.without_edge`): it shares
every part the delta does not change and checks only what the delta can
break.  Each delta is intersected with the dependency balls to compute
the **dirty set**: the nodes whose ball membership, ball content (labels,
identifiers) or ball-internal edges may have changed.  For a label or
identifier delta at ``v`` that is exactly ``ball(v, r)`` (by symmetry,
the nodes whose ball contains ``v``); for an edge delta ``{u, v}`` it is
the union of the balls of both endpoints in the *old* and the *new* graph
(a shortest path can only change by crossing the toggled edge, so any
node whose ball gains, loses or rewires a member lies in one of the four
balls).  The compiled instance is then
:meth:`~repro.engine.compiled.CompiledInstance.rewire`-d in place: only
the dirty nodes' labels, identifiers, neighbor rows, balls and
dependents are re-derived, dirty nodes lose their memoized verdicts and
canonical signatures, clean nodes keep them, and the next
:meth:`MutableInstance.verdict` re-evaluates only what the mutation
actually touched.

So a delta's Python work is proportional to its dirty set.  Three steps
stay O(n) on purpose: the shallow C copies of the graph's adjacency dict,
edge frozenset and label dict; the connectivity search of an edge delete;
and, when identifiers are not globally unique, the horizon-uniqueness
re-check of identifier and edge deltas (one search per node).

The repair claim -- every repaired verdict equals a full recompute equals
the exhaustive oracle -- is enforced by the hypothesis-driven differential
harness in ``tests/test_dynamic.py`` and benchmarked (with a CI gate) by
``benchmarks/bench_dynamic.py``.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from typing import (
    Any,
    ClassVar,
    Dict,
    Iterable,
    List,
    Mapping,
    Optional,
    Sequence,
    Set,
    Tuple,
    Union,
)

from repro.engine.batch import GameInstance
from repro.engine.compiled import CompiledGameEngine, CompiledInstance
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.hierarchy.certificate_spaces import CertificateSpace, materialize_space
from repro.hierarchy.game import Quantifier

#: Recompile a session's instance only when its interned alphabet exceeds
#: this multiple of the live candidate alphabet (its memos restart cold, so
#: this must stay rare under ordinary churn; identifier-heavy candidate
#: spaces are the workload that actually strands codes).
_COMPACT_FACTOR = 4
_COMPACT_SLACK = 8


class DeltaError(ValueError):
    """A mutation that cannot be applied to the current graph state."""


# ----------------------------------------------------------------------
# Deltas
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EdgeInsert:
    """Insert the edge ``{u, v}`` (must not already exist)."""

    u: Node
    v: Node
    kind: ClassVar[str] = "edge-insert"


@dataclass(frozen=True)
class EdgeDelete:
    """Delete the edge ``{u, v}`` (must exist and keep the graph connected)."""

    u: Node
    v: Node
    kind: ClassVar[str] = "edge-delete"


@dataclass(frozen=True)
class SetLabel:
    """Set *node*'s label to the bit string *label*."""

    node: Node
    label: str
    kind: ClassVar[str] = "set-label"


@dataclass(frozen=True)
class SetIdentifier:
    """Set *node*'s identifier to *identifier* (identifier churn)."""

    node: Node
    identifier: str
    kind: ClassVar[str] = "set-id"


Delta = Union[EdgeInsert, EdgeDelete, SetLabel, SetIdentifier]

#: Wire kind -> delta class, shared with the service protocol layer.
DELTA_KINDS: Dict[str, type] = {
    EdgeInsert.kind: EdgeInsert,
    EdgeDelete.kind: EdgeDelete,
    SetLabel.kind: SetLabel,
    SetIdentifier.kind: SetIdentifier,
}


def delta_to_wire(delta: Delta, nodes: Sequence[Node]) -> Dict[str, Any]:
    """The JSON-ready wire form of *delta*, addressing nodes by index."""
    index = {u: i for i, u in enumerate(nodes)}
    if isinstance(delta, (EdgeInsert, EdgeDelete)):
        return {"kind": delta.kind, "u": index[delta.u], "v": index[delta.v]}
    if isinstance(delta, SetLabel):
        return {"kind": delta.kind, "node": index[delta.node], "label": delta.label}
    if isinstance(delta, SetIdentifier):
        return {"kind": delta.kind, "node": index[delta.node], "id": delta.identifier}
    raise DeltaError(f"unknown delta {delta!r}")


def delta_from_wire(body: Mapping[str, Any], nodes: Sequence[Node]) -> Delta:
    """Decode one wire delta, mapping node indices back to node identities.

    Structural defects (unknown kind, missing or mistyped fields, indices
    out of range) raise :class:`DeltaError`; the protocol layer maps those
    to the typed ``bad-delta`` error code.
    """
    kind = body.get("kind")
    if kind not in DELTA_KINDS:
        raise DeltaError(
            f"unknown delta kind {kind!r}; known: {sorted(DELTA_KINDS)}"
        )

    def node_at(field: str) -> Node:
        value = body.get(field)
        if isinstance(value, bool) or not isinstance(value, int):
            raise DeltaError(f"delta field {field!r} must be a node index")
        if not 0 <= value < len(nodes):
            raise DeltaError(
                f"node index {value} out of range (graph has {len(nodes)} nodes)"
            )
        return nodes[value]

    if kind in (EdgeInsert.kind, EdgeDelete.kind):
        return DELTA_KINDS[kind](u=node_at("u"), v=node_at("v"))
    if kind == SetLabel.kind:
        label = body.get("label")
        if not isinstance(label, str):
            raise DeltaError("set-label requires a string 'label' field")
        return SetLabel(node=node_at("node"), label=label)
    identifier = body.get("id")
    if not isinstance(identifier, str):
        raise DeltaError("set-id requires a string 'id' field")
    return SetIdentifier(node=node_at("node"), identifier=identifier)


@dataclass(frozen=True)
class RepairReport:
    """What one applied delta cost: the dirty set and whether repair was partial."""

    delta: Delta
    dirty: Tuple[int, ...]
    full_rebuild: bool
    changed: bool
    seconds: float


# ----------------------------------------------------------------------
# The mutable layer
# ----------------------------------------------------------------------
def _insert_id_clash(
    graph: LabeledGraph,
    ids: Mapping[Node, str],
    u: Node,
    v: Node,
) -> Optional[str]:
    """The identifier a new edge ``{u, v}`` would duplicate within distance 2.

    Inserting the edge only shortens distances along paths through it, so
    the new within-2 pairs are ``(u, v)`` itself and each endpoint against
    the other endpoint's neighbors.  Returns ``None`` when 1-local
    uniqueness survives.
    """
    if ids[u] == ids[v]:
        return ids[u]
    for a, b in ((u, v), (v, u)):
        for w in graph.neighbors(b):
            if w != a and ids[w] == ids[a]:
                return ids[a]
    return None


def _next_graph(graph: LabeledGraph, delta: Delta) -> LabeledGraph:
    """The graph after *delta*, derived from *graph* (an identifier delta
    keeps it: identifiers are not part of the graph).  The graph's own
    checks raise ``TypeError``/``ValueError`` when the delta does not fit."""
    if isinstance(delta, SetLabel):
        return graph.relabel({delta.node: delta.label})
    if isinstance(delta, EdgeInsert):
        return graph.with_edge(delta.u, delta.v)
    if isinstance(delta, EdgeDelete):
        return graph.without_edge(delta.u, delta.v)
    return graph


class MutableInstance:
    """A certificate-game instance under mutation, with incremental repair.

    Holds the current graph state (node set fixed; adjacency, labels and
    identifiers mutable) plus a private compiled instance that is repaired
    in place on every delta.  Verdicts are computed lazily: a mutation only
    pays for the dirty-set bookkeeping and the in-place
    :meth:`~repro.engine.compiled.CompiledInstance.rewire`; the next
    :meth:`verdict` call rebuilds the (cheap) engine shell and re-evaluates
    exactly the leaves whose memo entries the mutation invalidated.

    An attached :class:`~repro.engine.canonical.CanonicalVerdictCache`
    survives mutations by construction: its keys embed the ball-local
    identifiers, labels and edges, so a mutated neighborhood gets a fresh
    key and a reverted one re-hits its old entry.
    """

    def __init__(
        self,
        machine,
        graph: LabeledGraph,
        ids: Mapping[Node, str],
        spaces: Sequence[CertificateSpace],
        prefix: Sequence[Quantifier],
        name: str = "",
        canonical=None,
    ) -> None:
        if len(spaces) != len(prefix):
            raise ValueError("there must be exactly one certificate space per quantifier")
        self.machine = machine
        self.spaces: List[CertificateSpace] = list(spaces)
        self.prefix: Tuple[Quantifier, ...] = tuple(prefix)
        self.name = name
        #: The current graph; each effective delta replaces it with one
        #: derived from it.  Identifiers live beside it in ``_ids``.
        self.graph = graph
        self._nodes: Tuple[Node, ...] = graph.nodes
        self._index: Dict[Node, int] = {u: i for i, u in enumerate(self._nodes)}
        self._ids: Dict[Node, str] = dict(ids)
        # A private compiled instance: rewire mutates it in place.
        self.compiled = CompiledInstance(machine, graph, ids)
        if canonical is not None:
            self.compiled.attach_canonical(canonical)
        self._verdict: Optional[bool] = None
        self._key: Optional[str] = None
        self._machine_digest: Optional[str] = None
        self.mutations = 0
        self.noops = 0
        self.dirty_total = 0
        self.full_rebuilds = 0
        self.compactions = 0
        self.verdicts_computed = 0
        self.repair_seconds = 0.0

    @classmethod
    def from_game_instance(cls, instance: GameInstance, **kwargs) -> "MutableInstance":
        """A mutable copy of a (static) :class:`~repro.engine.batch.GameInstance`."""
        return cls(
            machine=instance.machine,
            graph=instance.graph,
            ids=instance.ids,
            spaces=instance.spaces,
            prefix=instance.prefix,
            name=instance.name,
            **kwargs,
        )

    # ------------------------------------------------------------------
    @property
    def nodes(self) -> Tuple[Node, ...]:
        """The (fixed) node set, in compiled index order."""
        return self._nodes

    @property
    def ids(self) -> Dict[Node, str]:
        """A copy of the current identifier assignment."""
        return dict(self._ids)

    def as_game_instance(self) -> GameInstance:
        """An immutable snapshot of the current state (for recompute/oracle)."""
        return GameInstance(
            machine=self.machine,
            graph=self.graph,
            ids=dict(self._ids),
            spaces=list(self.spaces),
            prefix=list(self.prefix),
            name=self.name or "dynamic",
        )

    def key(self) -> str:
        """The content-addressed store key of the *current* state.

        Mutations change the graph payload, so the key changes with every
        effective delta -- which is exactly why the service's LRU/store
        tiers can never serve a pre-mutation verdict for a mutated game.
        The machine never changes, so it is fingerprinted once per session.
        """
        if self._key is None:
            from repro.sweep.fingerprint import instance_key, machine_fingerprint

            if self._machine_digest is None:
                self._machine_digest = machine_fingerprint(self.machine)
            self._key = instance_key(
                self.machine, self.graph, self._ids, self.spaces, self.prefix, self._machine_digest
            )
        return self._key

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def apply(self, delta: Delta) -> RepairReport:
        """Apply one delta, repairing the compiled instance in place.

        Raises :class:`DeltaError` when the delta does not fit the current
        state (unknown node, duplicate edge, bridge deletion, malformed
        label); the state is unchanged in that case, because the next
        graph is derived and checked before anything is assigned.
        """
        start = time.perf_counter()
        step = self._step(delta)
        if step is None:
            # No-op delta (same label/identifier): nothing to repair.
            self.noops += 1
            return RepairReport(
                delta=delta,
                dirty=(),
                full_rebuild=False,
                changed=False,
                seconds=time.perf_counter() - start,
            )
        graph, dirty_nodes = step
        if isinstance(delta, SetIdentifier):
            self._ids[delta.node] = delta.identifier
        self.graph = graph
        dirty_indices = {self._index[u] for u in dirty_nodes}
        invalidated = self.compiled.rewire(graph, self._ids, dirty_indices)
        full_rebuild = len(invalidated) == len(self._nodes) and len(dirty_indices) < len(
            self._nodes
        )
        if full_rebuild:
            self.full_rebuilds += 1
        self.mutations += 1
        self.dirty_total += len(invalidated)
        self._verdict = None
        self._key = None
        seconds = time.perf_counter() - start
        self.repair_seconds += seconds
        return RepairReport(
            delta=delta,
            dirty=invalidated,
            full_rebuild=full_rebuild,
            changed=True,
            seconds=seconds,
        )

    def apply_all(self, deltas: Iterable[Delta]) -> List[RepairReport]:
        """Apply a whole delta stream, returning one report per delta."""
        return [self.apply(delta) for delta in deltas]

    def inverse_of(self, delta: Delta) -> Delta:
        """The delta undoing *delta* from the *current* state (pre-apply)."""
        if isinstance(delta, EdgeInsert):
            return EdgeDelete(u=delta.u, v=delta.v)
        if isinstance(delta, EdgeDelete):
            return EdgeInsert(u=delta.u, v=delta.v)
        if isinstance(delta, SetLabel):
            self._require_node(delta.node)
            return SetLabel(node=delta.node, label=self.graph.label(delta.node))
        if isinstance(delta, SetIdentifier):
            self._require_node(delta.node)
            return SetIdentifier(node=delta.node, identifier=self._ids[delta.node])
        raise DeltaError(f"unknown delta {delta!r}")

    def apply_batch(self, deltas: Sequence[Delta]) -> List[RepairReport]:
        """Apply *deltas* atomically: on any failure, roll back and re-raise.

        The service's ``mutate`` op promises all-or-nothing batches; the
        rollback replays recorded inverse deltas in reverse order, which
        always succeeds because it only retraces states the graph was
        just in.  A rolled-back batch counts no mutations.
        """
        reports: List[RepairReport] = []
        undo: List[Delta] = []
        counts = (self.mutations, self.noops)
        try:
            for delta in deltas:
                inverse = self.inverse_of(delta)
                reports.append(self.apply(delta))
                undo.append(inverse)
        except DeltaError:
            for inverse in reversed(undo):
                self.apply(inverse)
            self.mutations, self.noops = counts
            raise
        return reports

    def _require_node(self, node: Node) -> None:
        if node not in self._index:
            raise DeltaError(f"unknown node {node!r}")

    def _step(self, delta: Delta) -> Optional[Tuple[LabeledGraph, Set[Node]]]:
        """Validate *delta* and return the next graph and the dirty node set
        (``None`` = no-op), changing nothing.

        For label/identifier deltas at ``v`` the dirty set is ``ball(v, r)``:
        by symmetry those are exactly the nodes whose ball contains ``v``.
        For an edge delta ``{u, v}`` it is the union of both endpoints'
        balls in the old *and* the new graph: any changed shortest path
        crosses the toggled edge, so every node whose ball membership or
        ball-internal edges change lies within ``r`` of an endpoint before
        or after.  If the mutation flips the direct/fixpoint decision,
        :meth:`CompiledInstance.rewire` widens to a full rebuild on its own.
        """
        graph = self.graph
        radius = self.compiled.radius
        if isinstance(delta, SetIdentifier):
            self._require_node(delta.node)
            if not isinstance(delta.identifier, str):
                raise DeltaError("identifier must be a string")
            if self._ids[delta.node] == delta.identifier:
                return None
            # The paper requires 1-locally-unique identifiers (distinct
            # within distance 2); the simulator's views depend on it.
            for other in graph.ball(delta.node, 2):
                if other != delta.node and self._ids[other] == delta.identifier:
                    raise DeltaError(
                        f"identifier {delta.identifier!r} already used by {other!r} "
                        f"within distance 2 of {delta.node!r} "
                        "(identifiers must stay 1-locally unique)"
                    )
            return graph, graph.ball(delta.node, radius)
        if isinstance(delta, SetLabel):
            self._require_node(delta.node)
            if graph.label(delta.node) == delta.label:
                return None
            return self._derive(delta), graph.ball(delta.node, radius)
        if not isinstance(delta, (EdgeInsert, EdgeDelete)):
            raise DeltaError(f"unknown delta {delta!r}")
        after = self._derive(delta)
        u, v = delta.u, delta.v
        if isinstance(delta, EdgeInsert):
            # The only pairs an insert pulls within distance 2 are (u, v)
            # and endpoint-vs-other-endpoint's-neighbors, so 1-local
            # uniqueness reduces to these checks.
            clash = _insert_id_clash(graph, self._ids, u, v)
            if clash is not None:
                raise DeltaError(
                    f"inserting edge ({u!r}, {v!r}) would place equal "
                    f"identifiers {clash!r} within distance 2 "
                    "(identifiers must stay 1-locally unique)"
                )
        # An insert only shortens distances, so the old balls lie inside
        # the new ones, and a delete is the mirror image: the union of the
        # four balls is the two balls in whichever graph has the edge.
        joined = after if isinstance(delta, EdgeInsert) else graph
        return after, joined.ball(u, radius) | joined.ball(v, radius)

    def _derive(self, delta: Delta) -> LabeledGraph:
        """The graph after a label or edge delta; the graph's checks
        (bit string, endpoints, edge present or absent, no bridge) raise
        :class:`DeltaError`."""
        try:
            return _next_graph(self.graph, delta)
        except (TypeError, ValueError) as error:
            raise DeltaError(str(error)) from error

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def verdict(self) -> bool:
        """Eve's verdict for the current state (cached until the next delta)."""
        if self._verdict is None:
            self._maybe_compact()
            engine = CompiledGameEngine(
                self.machine, self.graph, self._ids, self.spaces, instance=self.compiled
            )
            self._verdict = engine.eve_wins(self.prefix)
            self.verdicts_computed += 1
        return self._verdict

    def note_verdict(self, verdict: bool) -> None:
        """Adopt an externally known verdict for the *current* state.

        Lets a cache tier that answered by content-addressed key (same
        state, solved earlier) prime the lazy verdict without re-solving.
        """
        self._verdict = bool(verdict)

    def _maybe_compact(self) -> None:
        """Recompile the instance when churn stranded most of its codes.

        The fresh instance interns only the live candidates, keeps the
        canonical cache and takes a generation above the old one's, so a
        session's generation never falls.  Its memos start cold and
        :meth:`info`'s memo counters restart, so this runs only when the
        interned alphabet dwarfs the live candidate alphabet.
        """
        old = self.compiled
        if len(old.alphabet) <= _COMPACT_SLACK:
            return
        live: Set[str] = set()
        for space in self.spaces:
            live.update(materialize_space(space, self.graph, self._ids).alphabet)
        if len(old.alphabet) > _COMPACT_FACTOR * (len(live) + 1) + _COMPACT_SLACK:
            fresh = CompiledInstance(self.machine, self.graph, self._ids)
            fresh.generation = old.generation + 1
            fresh.attach_canonical(old.canonical)
            self.compiled = fresh  # last: the daemon reads its generation unlocked
            self.compactions += 1

    def info(self) -> Dict[str, Any]:
        """Mutation/repair counters, for stats endpoints and tests."""
        return {
            "nodes": len(self._nodes),
            "mutations": self.mutations,
            "noops": self.noops,
            "dirty_total": self.dirty_total,
            "full_rebuilds": self.full_rebuilds,
            "compactions": self.compactions,
            "verdicts_computed": self.verdicts_computed,
            "repair_seconds": round(self.repair_seconds, 6),
            "memo": self.compiled.memo_info(),
        }

    def __repr__(self) -> str:
        return (
            f"MutableInstance(nodes={len(self._nodes)}, mutations={self.mutations}, "
            f"dirty_total={self.dirty_total}, compiled={self.compiled!r})"
        )


def recompute_verdict(instance: GameInstance) -> bool:
    """A from-scratch verdict: fresh compiled instance, cold memo, cold engine.

    The baseline the differential harness and the dynamic benchmark compare
    repair against -- what a client without the mutable layer would pay per
    mutation.
    """
    compiled = CompiledInstance(instance.machine, instance.graph, instance.ids)
    engine = CompiledGameEngine(
        instance.machine,
        instance.graph,
        instance.ids,
        instance.spaces,
        instance=compiled,
    )
    return engine.eve_wins(instance.prefix)


# ----------------------------------------------------------------------
# Seeded mutation traces
# ----------------------------------------------------------------------
def random_trace(
    graph: LabeledGraph,
    *,
    seed: int = 0,
    steps: int = 16,
    kinds: Sequence[str] = ("label", "edge"),
    labels: Sequence[str] = ("", "0", "1"),
    ids: Optional[Mapping[Node, str]] = None,
    id_pool: Sequence[str] = (),
    hot_nodes: Optional[Sequence[Node]] = None,
) -> List[Delta]:
    """A deterministic, always-valid mutation trace over *graph*.

    Each step draws a kind from *kinds* (``"label"``, ``"edge"``, ``"id"``)
    and a valid move of that kind, simulating the evolving state so that
    edge deletions never disconnect and inserts never duplicate.  *hot_nodes*
    restricts label/identifier churn to a subset -- the "mostly stable"
    workloads whose dirty sets stay small.  Steps with no valid move of the
    drawn kind fall back to a label flip.
    """
    rng = random.Random(seed)
    ids_now: Dict[Node, str] = dict(ids) if ids is not None else {}
    all_nodes = list(graph.nodes)
    churn_nodes = list(hot_nodes) if hot_nodes is not None else all_nodes
    kinds = tuple(kinds)
    if "id" in kinds and (ids is None or not id_pool):
        raise ValueError("id churn requires both ids= and a nonempty id_pool=")

    # The moves read ``graph``, which the loop below advances each step.
    def label_move() -> Optional[Delta]:
        node = rng.choice(churn_nodes)
        choices = [value for value in labels if value != graph.label(node)]
        if not choices:
            return None
        return SetLabel(node=node, label=rng.choice(choices))

    def edge_move() -> Optional[Delta]:
        for _ in range(32):
            u, v = rng.sample(all_nodes, 2)
            if graph.has_edge(u, v):
                try:
                    graph.without_edge(u, v)
                except ValueError:  # a bridge
                    continue
                return EdgeDelete(u=u, v=v)
            if not ids_now or _insert_id_clash(graph, ids_now, u, v) is None:
                return EdgeInsert(u=u, v=v)
        return None

    def id_move() -> Optional[Delta]:
        node = rng.choice(churn_nodes)
        taken = {ids_now[other] for other in graph.ball(node, 2) if other != node}
        choices = [
            value
            for value in id_pool
            if value != ids_now.get(node) and value not in taken
        ]
        if not choices:
            return None
        return SetIdentifier(node=node, identifier=rng.choice(choices))

    moves = {"label": label_move, "edge": edge_move, "id": id_move}
    trace: List[Delta] = []
    while len(trace) < steps:
        delta = moves[rng.choice(kinds)]()
        if delta is None:
            delta = label_move()
        if delta is None:
            break
        if isinstance(delta, SetIdentifier):
            ids_now[delta.node] = delta.identifier
        graph = _next_graph(graph, delta)
        trace.append(delta)
    return trace
