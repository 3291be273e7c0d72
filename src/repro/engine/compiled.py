"""The compiled instance core: integer-coded games on flat arrays.

The certificate game is decided here, by the repository's one fast engine
(the exhaustive :func:`repro.hierarchy.game.eve_wins` is the oracle it is
tested against).  A ``(machine, graph, ids)`` instance is lowered to flat
integer form once and the whole game runs on it:

* **Index adjacency and balls.**  Nodes become indices ``0..n-1``; each
  node's neighbors and dependency ball are sorted index tuples, so the
  inner loops touch machine integers instead of hashing node objects, and
  a mutation re-lowers only the nodes it dirties.
* **Integer-coded certificates.**  Certificate strings are interned into a
  per-instance alphabet; a game position is a small-int array ``kappa[level][v]
  ∈ range(k)`` instead of dicts of strings.
* **Incremental packed restriction keys.**  The per-node memo key -- the
  certificate restriction to the node's ball -- is a single packed integer
  (``shift`` bits per ball slot per level) maintained *incrementally*: an
  assignment delta at node ``v`` updates the keys of exactly the nodes whose
  ball contains ``v``, via precomputed ``(dependent, shift-amount)`` pairs.
  No tuples are ever rebuilt on the game's hot path.
* **Table-driven leaf evaluation.**  Machines carrying a declarative
  :mod:`repro.machines.rules` rule (the coloring verifiers, degree/label
  deciders, the tree-field proof-labeling verifiers, ...) are evaluated
  straight off the code arrays: pairwise rules become per-node own-tables
  plus a shared ``(label, code, label, code)`` pair table; star rules are
  evaluated on a thin :class:`~repro.machines.rules.StarView` without any
  LocalView reconstruction.  Gather machines without a usable rule run
  their ``compute`` on a view rebuilt off the index tuples: straight from
  the ball when identifiers are unique in the gather horizon (the direct
  path), else from a per-node replay of the gather's identifier-keyed
  knowledge tables (the fixpoint path).  Only other machines fall back to
  simulation on the induced ball subgraph.  All paths are memoized under
  the same packed keys and cross-checked against the exhaustive solver
  (and the fixpoint against the simulator) by the equivalence suite.

:class:`CompiledGameEngine` runs the full quantifier game on this substrate:
level enumeration is an odometer over code arrays (one ``set_code`` delta
per step, in exactly the reference solver's ``itertools.product`` order),
and the innermost levels are solved by pruned search on coded state (mask
pruning through :mod:`repro.engine.bitset` for pairwise rules).  Within one
game the odometer visits each partial assignment once, so an engine keeps
no table of game values: what games share is the instance's per-node
verdict memo, which is bounded by segment eviction.

The alphabet can grow at runtime (callers may present unseen certificate
strings); when it outgrows the packing width the instance *rebases* --
doubles ``shift``, bumps its ``generation`` and drops the packed-key memo.
Live :class:`CodedState` objects compare generations and resynchronize
lazily, so a rebase can never cause a stale or aliased memo hit.  The
alphabet only grows: codes never change meaning, so no code-keyed table is
ever cleared to renumber (a dynamic session that strands most of its codes
recompiles instead).
"""

from __future__ import annotations

import itertools
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Set, Tuple

from repro.graphs.identifiers import identifier_key
from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.hierarchy.certificate_spaces import CertificateSpace, materialize_space
from repro.hierarchy.game import Quantifier, pi_prefix, sigma_prefix
from repro.machines.interface import NodeMachine, verdict_of
from repro.machines.local_algorithm import LocalView, NeighborhoodGatherAlgorithm
from repro.machines.rules import PairwiseRule, rule_of
from repro.machines.simulator import execute

from repro.engine.bitset import BitsetKernel, mask_of_codes
from repro.engine.caching import MISSING
from repro.engine.canonical import node_ball_signature, verdict_key

#: Default bound on the shared per-node verdict memo of a compiled instance.
DEFAULT_LEAF_MEMO_CAP = 1 << 20


class CompiledInstance:
    """A ``(machine, graph, ids)`` instance lowered to flat integer arrays.

    Construction performs the whole lowering: node indexing, adjacency rows,
    dependency balls and their inverse (the *dependents* of each node, with
    precomputed packed-key shift amounts), the direct/fixpoint decision,
    and kernel selection from the machine's declarative rule, if any.

    Plain :class:`~repro.machines.local_algorithm.NeighborhoodGatherAlgorithm`
    machines never run the simulator: memo misses apply ``compute`` to the
    local view rebuilt off the adjacency rows.  The *direct* path, the only one
    that trusts a declared rule, is taken when identifiers are pairwise
    distinct inside every radius-``(r + 1)`` ball -- the *gather horizon*: the simulated gather
    runs ``r + 1`` communication rounds, so its identifier-keyed knowledge
    tables span one hop beyond the view radius, and a collision anywhere in
    that horizon can plant phantom entries.  Otherwise the *fixpoint* path
    replays those tables' merge sweeps once per node, which reproduces such
    collisions exactly (e.g. on the periodic-identifier cycles of
    Proposition 26).  Every other machine is simulated on its induced ball
    subgraph.  :attr:`path` names the path.  Each path caches its
    certificate-free part per node (the static view fields, the ball
    subgraph).

    The instance owns the shared per-node verdict memo (LRU-bounded, keyed
    by ``(node, levels, packed restriction key)``) and the certificate
    alphabet.  Every leaf verdict -- engine searches and one-off
    :meth:`accepts_dicts` runs alike -- goes through
    :meth:`node_verdict_state` on a :class:`CodedState`, so all of them
    share every cached verdict.
    """

    def __init__(
        self,
        machine: NodeMachine,
        graph: LabeledGraph,
        ids: Mapping[Node, str],
        memo_cap: Optional[int] = DEFAULT_LEAF_MEMO_CAP,
    ) -> None:
        self.machine = machine
        nodes = graph.nodes
        self.nodes: Tuple[Node, ...] = nodes
        self.index: Dict[Node, int] = {u: i for i, u in enumerate(nodes)}
        n = self.n = len(nodes)
        #: The lowered graph (the previous one while :meth:`_lower` runs).
        self.graph: Optional[LabeledGraph] = None
        self.ids: Dict[Node, str] = dict(ids)
        #: Per node index, filled by :meth:`_lower`: the label, identifier,
        #: sorted neighbor indices and degree, and the dependency ball (sorted
        #: indices) with its size.  ``dependents[v]`` maps each node ``u``
        #: whose ball holds ``v`` to ``v``'s position in that ball.
        self.labels: List[str] = [""] * n
        self.ids_list: List[Optional[str]] = [None] * n
        self.adjacency: List[Optional[Tuple[int, ...]]] = [None] * n
        self.degrees: List[int] = [0] * n
        self.balls: List[Tuple[int, ...]] = [()] * n
        self.ball_sizes: List[int] = [0] * n
        self.dependents: List[Dict[int, int]] = [{} for _ in range(n)]
        self._dep_shifts: List[List[Tuple[Tuple[int, int], ...]]] = []
        #: Plain gather machines are evaluated by ``compute`` on a rebuilt
        #: view (direct or fixpoint path); every other machine is simulated.
        self._gather = type(machine) is NeighborhoodGatherAlgorithm
        self.direct: Optional[bool] = None
        self._lower(graph, ids, None)

        # Certificate interning.  Code 0 is the empty certificate -- the value
        # every node implicitly carries in a freshly zeroed state.
        self.alphabet: List[str] = [""]
        self.code_of: Dict[str, int] = {"": 0}
        self.shift = 4
        self.generation = 0

        #: Per-node verdict memos, keyed by ``(packed key << 5) | levels``
        #: (int keys hash faster than tuples on the hot path).  Bounded as a
        #: whole by *memo_cap* with segment eviction: when full, the oldest
        #: (insertion-ordered) half of every node's memo is dropped.
        self.memo_nodes: List[Dict[int, bool]] = [{} for _ in range(n)]
        self.memo_cap = memo_cap
        self.memo_entries = 0
        self.memo_hits = 0
        self.memo_misses = 0
        self.memo_evictions = 0
        #: Entries dropped by :meth:`rewire` (mutation repair, not pressure).
        self.memo_invalidations = 0
        #: Simulator runs that filled memo misses (the ``simulate`` path only).
        self.simulator_runs = 0
        #: Shared evaluation order with the last-reject-first heuristic.
        self.order: List[int] = list(range(n))

        # Lazy kernel helpers.
        self._own_tables: List[Dict[int, bool]] = [{} for _ in range(n)]
        self._pair_table: Dict[Tuple[str, int, str, int], bool] = {}
        self._star_statics: Optional[List[tuple]] = None
        #: Bitset leaf kernel (snapshot of the alphabet/packing; lazily
        #: rebuilt by :meth:`bitset_kernel` when stale).
        self._bitset_kernel: Optional[BitsetKernel] = None
        #: Canonical ball memoization (attached by sweeps/the service; the
        #: expensive rule-less paths consult it on per-node memo misses).
        self.canonical = None
        self._machine_token: Optional[str] = None
        self._canonical_statics: List[Optional[bytes]] = [None] * n
        #: Per node, the certificate-free part of a rule-less evaluation:
        #: the static view fields and certificate sources (direct and
        #: fixpoint paths) or the induced ball subgraph (simulation path).
        #: Built on first use.
        self._static_views: List[Optional[tuple]] = [None] * n
        self._ball_subgraphs: List[Optional[LabeledGraph]] = [None] * n

    # ------------------------------------------------------------------
    # Lowering (construction and rewire)
    # ------------------------------------------------------------------
    def _lower(
        self, graph: LabeledGraph, ids: Mapping[Node, str], dirty: Optional[Iterable[int]]
    ) -> Set[int]:
        """Lower ``(graph, ids)`` onto this instance's node indexing.

        Only the *dirty* node indices are read (every node when *dirty* is
        ``None``, as on construction): their label, identifier and neighbor
        row.  The direct/fixpoint decision and the rule are re-taken only
        when an identifier or a row changed, balls are re-extracted only
        when a row changed (or the decision flipped, which sets the
        dependency radius, so then every ball), and ``dependents`` moves
        only for the nodes whose ball changed.  Returns the dirty indices,
        every index after a flip.
        """
        previous, self.graph = self.graph, graph
        nodes, index, n = self.nodes, self.index, self.n
        if dirty is None:
            dirty_set = set(range(n))
        else:
            dirty_set = {u for u in dirty if 0 <= u < n}
        labels, ids_list, adjacency, degrees = (
            self.labels, self.ids_list, self.adjacency, self.degrees
        )
        own_ids = self.ids
        ids_changed = False
        moved_rows: List[int] = []
        for u in dirty_set:
            node = nodes[u]
            labels[u] = graph.label(node)
            identifier = ids[node]
            if identifier != ids_list[u]:
                ids_list[u] = own_ids[node] = identifier
                ids_changed = True
            neighbors = graph.neighbors(node)
            # A derived graph shares the neighbor sets it did not change,
            # and an unchanged set means an unchanged row.
            if previous is not None and neighbors is previous.neighbors(node):
                continue
            row = tuple(sorted(map(index.__getitem__, neighbors)))
            if row != adjacency[u]:
                adjacency[u] = row
                degrees[u] = len(row)
                moved_rows.append(u)
        if not (ids_changed or moved_rows):
            return dirty_set

        machine = self.machine
        old_direct = self.direct
        direct = self._gather and self._ids_unique_in_horizon(machine.radius + 1)
        self.direct = direct
        self.radius = machine.radius if direct else max(1, machine.max_rounds())
        rule = rule_of(machine)
        self.rule = (
            rule
            if direct and rule is not None and rule.radius == machine.radius
            else None
        )
        self._rule_is_pairwise = isinstance(self.rule, PairwiseRule)
        if old_direct is not None and direct != old_direct:
            dirty_set = set(range(n))
            extract: Iterable[int] = dirty_set
        elif not moved_rows:
            return dirty_set
        else:
            # A radius-1 ball is the closed neighborhood: only a node whose
            # own row moved can have a new one.
            extract = moved_rows if self.radius == 1 else dirty_set

        balls, sizes, dependents = self.balls, self.ball_sizes, self.dependents
        moved = False
        for u in extract:
            ball = self._ball_indices(u)
            old = balls[u]
            if ball == old:
                continue
            for v in old:
                del dependents[v][u]
            balls[u] = ball
            sizes[u] = len(ball)
            for position, v in enumerate(ball):
                dependents[v][u] = position
            moved = True
        if moved:
            self._dep_shifts = []
        return dirty_set

    def _ids_unique_in_horizon(self, horizon: int) -> bool:
        # Globally unique identifiers (the common schemes) are trivially
        # unique in every ball; only locally-unique schemes need the BFS.
        if len(set(self.ids_list)) == self.n:
            return True
        graph, ids = self.graph, self.ids
        for u in graph.nodes:
            ball = graph.ball(u, horizon)
            if len({ids[v] for v in ball}) != len(ball):
                return False
        return True

    def _ball_indices(self, source: int) -> Tuple[int, ...]:
        """*source*'s dependency ball as sorted node indices."""
        if self.radius == 1:  # the common case: the closed neighborhood
            return tuple(sorted([source, *self.adjacency[source]]))
        return tuple(sorted(self._ball_distances(source)))

    def _ball_distances(self, source: int) -> Dict[int, int]:
        """Hop distance from *source* to each node of its dependency ball."""
        adjacency = self.adjacency
        distance = {source: 0}
        frontier = [source]
        depth = 0
        while frontier and depth < self.radius:
            depth += 1
            next_frontier = []
            for u in frontier:
                for w in adjacency[u]:
                    if w not in distance:
                        distance[w] = depth
                        next_frontier.append(w)
            frontier = next_frontier
        return distance

    # ------------------------------------------------------------------
    # Certificate interning and packed-key plumbing
    # ------------------------------------------------------------------
    def intern(self, certificate: str) -> int:
        """The integer code of a certificate string (allocating if unseen).

        Allocating past the packing capacity triggers a :meth:`_rebase`;
        callers that cached packed keys must compare :attr:`generation`.
        """
        code = self.code_of.get(certificate)
        if code is None:
            code = len(self.alphabet)
            self.code_of[certificate] = code
            self.alphabet.append(certificate)
            if code >= (1 << self.shift):
                self._rebase()
        return code

    def candidate_codes(self, materialized) -> List[List[int]]:
        """Per-node candidate code lists for a materialized space.

        The alphabet is interned once; per-node lists are then plain dict
        lookups.
        """
        for certificate in materialized.alphabet:
            self.intern(certificate)
        code_of = self.code_of
        return [
            [code_of[certificate] for certificate in candidates]
            for candidates in materialized.per_node
        ]

    def _rebase(self) -> None:
        """Double the per-slot packing width after alphabet growth.

        Codes themselves are stable (so the rule tables survive); only the
        *packed* keys change encoding, so the verdict memo is dropped and
        the generation bumped -- :class:`CodedState` objects compare it and
        resync lazily.
        """
        self.shift = max(self.shift * 2, (len(self.alphabet) - 1).bit_length() + 1)
        self.generation += 1
        self._dep_shifts = []
        self.clear_memo()

    def clear_memo(self) -> None:
        for memo in self.memo_nodes:
            memo.clear()
        self.memo_entries = 0

    def _memo_put(self, u: int, memo_key: int, verdict: bool) -> None:
        """Insert a verdict, evicting the oldest memo halves when full."""
        cap = self.memo_cap
        if cap is not None and self.memo_entries >= cap:
            dropped = 0
            for i, memo in enumerate(self.memo_nodes):
                keep = len(memo) // 2
                dropped += len(memo) - keep
                self.memo_nodes[i] = dict(
                    itertools.islice(memo.items(), len(memo) - keep, None)
                )
            self.memo_entries -= dropped
            self.memo_evictions += dropped
        memo = self.memo_nodes[u]
        if memo_key not in memo:
            self.memo_entries += 1
        memo[memo_key] = verdict

    def dep_shifts(self, level: int) -> List[Tuple[Tuple[int, int], ...]]:
        """Per node ``v``: the ``(dependent u, shift amount)`` pairs of *level*."""
        tables = self._dep_shifts
        while len(tables) <= level:
            built_level = len(tables)
            shift = self.shift
            sizes = self.ball_sizes
            tables.append(
                [
                    tuple(
                        (u, (position + built_level * sizes[u]) * shift)
                        for u, position in self.dependents[v].items()
                    )
                    for v in range(self.n)
                ]
            )
        return tables[level]

    def new_state(self, levels: int) -> "CodedState":
        """A zeroed coded assignment state with *levels* certificate levels."""
        return CodedState(self, levels)

    # ------------------------------------------------------------------
    # Dynamic mutation support (verdict repair)
    # ------------------------------------------------------------------
    def rewire(
        self,
        graph: LabeledGraph,
        ids: Mapping[Node, str],
        dirty: Optional[Iterable[int]] = None,
    ) -> Tuple[int, ...]:
        """Repoint this instance at a mutated ``(graph, ids)`` sharing its nodes.

        *dirty* is an over-approximation of the node indices whose dependency
        balls (membership, labels, identifiers or internal edges) may differ
        from the previous graph; ``None`` means every node.  Dirty nodes lose
        their memoized verdicts, canonical signatures, own-code tables,
        static views and ball subgraphs; clean nodes keep them: their balls
        and everything inside them are unchanged, so their packed
        restriction keys and canonical signatures still name the identical
        computation.  If the direct/fixpoint decision flips (identifier
        churn breaking horizon-uniqueness changes the dependency radius with
        it), everything is invalidated regardless of *dirty*.  Only the
        dirty nodes are re-read (:meth:`_lower`), so a repair costs work in
        proportion to *dirty*, not to the graph.

        The generation is bumped, so live :class:`CodedState` objects
        resynchronize and bitset kernels rebuild.  Codes and the packing
        width are untouched -- the alphabet only grows, through
        :meth:`intern`, so a code never changes meaning -- and the shared
        pair table, whose keys carry both endpoints' labels and codes,
        survives any mutation.
        Returns the invalidated indices.
        """
        if tuple(graph.nodes) != self.nodes:
            raise ValueError("rewire requires the same node set in the same order")
        dirty_set = self._lower(graph, ids, dirty)
        self.generation += 1
        for u in dirty_set:
            dropped = len(self.memo_nodes[u])
            if dropped:
                self.memo_nodes[u] = {}
                self.memo_entries -= dropped
                self.memo_invalidations += dropped
            self._own_tables[u] = {}
            self._canonical_statics[u] = None
            self._static_views[u] = None
            self._ball_subgraphs[u] = None
        self._star_statics = None
        self._bitset_kernel = None
        return tuple(sorted(dirty_set))

    # ------------------------------------------------------------------
    # Bitset kernel and canonical ball memoization
    # ------------------------------------------------------------------
    def bitset_kernel(self) -> Optional[BitsetKernel]:
        """The bitset leaf kernel of this instance's pairwise rule.

        ``None`` unless the rule is a
        :class:`~repro.machines.rules.PairwiseRule`: star rules and
        rule-less machines take the generic memoized search.  Kernels
        snapshot the alphabet and packing generation; a stale one is
        rebuilt here, so callers get masks that always match the current
        interning (cheap compare on the warm path).
        """
        if not self._rule_is_pairwise:
            return None
        kernel = self._bitset_kernel
        if (
            kernel is None
            or kernel.generation != self.generation
            or kernel.alphabet_len != len(self.alphabet)
        ):
            kernel = BitsetKernel(self)
            self._bitset_kernel = kernel
        return kernel

    def attach_canonical(self, cache) -> None:
        """Attach a :class:`~repro.engine.canonical.CanonicalVerdictCache`.

        The rule-less evaluation paths (direct views and ball-subgraph
        simulation -- the expensive ones) consult it on per-node memo
        misses, sharing verdicts across nodes, instances and sessions.
        """
        self.canonical = cache

    def _canonical_static(self, u: int) -> bytes:
        static = self._canonical_statics[u]
        if static is None:
            static = node_ball_signature(self, u)
            self._canonical_statics[u] = static
        return static

    def canonical_key_state(self, u: int, state: "CodedState") -> str:
        """The canonical ball-verdict key of node *u* under a coded state."""
        alphabet = self.alphabet
        ball = self.balls[u]
        certificates = tuple(
            tuple(alphabet[codes[v]] for v in ball) for codes in state.codes
        )
        return verdict_key(self._canonical_static(u), state.levels, certificates)

    # ------------------------------------------------------------------
    # Leaf evaluation on coded state (the engine's hot path)
    # ------------------------------------------------------------------
    def node_verdict_state(self, u: int, state: "CodedState") -> bool:
        """The memoized verdict of node index *u* under *state*.

        The memo key packs the levels count into the low bits of the packed
        restriction key, so one int lookup answers repeated restrictions.
        The miss path is deliberately flat -- kernel dispatch and the memo
        insert are inlined, since this is the engine's innermost call.
        """
        levels = state.levels
        memo_key = (state.keys[u] << 5) | levels
        verdict = self.memo_nodes[u].get(memo_key, MISSING)
        if verdict is not MISSING:
            self.memo_hits += 1
            return verdict
        self.memo_misses += 1
        rule = self._usable_rule(levels)
        if rule is not None:
            codes = state.codes[rule.level] if rule.level < levels else None
            if self._rule_is_pairwise:
                verdict = self._pairwise_codes(u, codes)
            else:
                verdict = rule.predicate(self._star_view(rule, u, codes))
        else:
            canonical = self.canonical
            canonical_key = None
            found = None
            if canonical is not None:
                canonical_key = self.canonical_key_state(u, state)
                found = canonical.get(canonical_key)
            if found is not None:
                verdict = found
            else:
                if self._gather:
                    verdict = verdict_of(self.machine.compute(self._local_view(u, state)))
                else:
                    verdict = self._simulate(u, state)
                if canonical is not None:
                    canonical.put(canonical_key, verdict)
        cap = self.memo_cap
        if cap is None or self.memo_entries < cap:
            # Re-fetch: _simulate's harvest may have segment-evicted and
            # rebound the per-node memo dicts while we computed.
            memo = self.memo_nodes[u]
            if memo_key not in memo:
                self.memo_entries += 1
            memo[memo_key] = verdict
        else:
            self._memo_put(u, memo_key, verdict)
        return verdict

    def accepts_state(self, state: "CodedState") -> bool:
        """Unanimity over all nodes, short-circuiting with last-reject-first."""
        order = self.order
        memo_nodes = self.memo_nodes
        keys = state.keys
        levels = state.levels
        for position, u in enumerate(order):
            verdict = memo_nodes[u].get((keys[u] << 5) | levels, MISSING)
            if verdict is MISSING:
                verdict = self.node_verdict_state(u, state)
            else:
                self.memo_hits += 1
            if not verdict:
                if position:
                    order.insert(0, order.pop(position))
                return False
        return True

    def accepts_dicts(self, assignments: Sequence[Mapping[Node, str]]) -> bool:
        """Unanimity under per-level certificate dicts (one-off verifier runs).

        A thin loader: the certificates are interned into a fresh
        :class:`CodedState` and the verdict is :meth:`accepts_state`'s.
        """
        state = self.new_state(len(assignments))
        for level, assignment in enumerate(assignments):
            state.load_level(level, assignment)
        return self.accepts_state(state)

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------
    def _usable_rule(self, levels: int):
        rule = self.rule
        if rule is None:
            return None
        if levels > rule.level or not rule.needs_certificate:
            return rule
        return None

    def _pairwise_codes(self, u: int, codes: Optional[List[int]]) -> bool:
        """Table-driven pairwise evaluation over a level's code array.

        *codes* is the code array of the rule's level (``None`` when the
        game has no such level and the rule does not read certificates).
        Verdict pieces are memoized in per-node own tables and a shared
        ``(label, code, label, code)`` pair table, so after warmup a node's
        evaluation is one dict lookup plus one per neighbor.
        """
        rule = self.rule
        own_code = codes[u] if codes is not None else -1
        own_table = self._own_tables[u]
        ok = own_table.get(own_code)
        if ok is None:
            certificate = self.alphabet[own_code] if own_code >= 0 else None
            ok = bool(rule.own_ok(self.labels[u], self.degrees[u], certificate))
            own_table[own_code] = ok
        if not ok:
            return False
        pair_ok = rule.pair_ok
        if pair_ok is None:
            return True
        pair_table = self._pair_table
        labels = self.labels
        alphabet = self.alphabet
        own_label = labels[u]
        for w in self.adjacency[u]:
            neighbor_code = codes[w] if codes is not None else -1
            pair_key = (own_label, own_code, labels[w], neighbor_code)
            ok = pair_table.get(pair_key)
            if ok is None:
                ok = bool(
                    pair_ok(
                        own_label,
                        alphabet[own_code] if own_code >= 0 else None,
                        labels[w],
                        alphabet[neighbor_code] if neighbor_code >= 0 else None,
                    )
                )
                pair_table[pair_key] = ok
            if not ok:
                return False
        return True

    def _star_view(self, rule, u: int, codes: Optional[List[int]]):
        from repro.machines.rules import StarView

        statics = self._star_statics
        if statics is None:
            statics = []
            ids_list, labels = self.ids_list, self.labels
            for v in range(self.n):
                neighbors = tuple(
                    sorted((ids_list[w], labels[w], w) for w in self.adjacency[v])
                )
                statics.append((ids_list[v], labels[v], len(neighbors), neighbors))
            self._star_statics = statics
        identifier, label, degree, neighbor_statics = statics[u]
        alphabet = self.alphabet

        def certificate_of(index: int) -> Optional[str]:
            if codes is None:
                return None
            return alphabet[codes[index]]

        return StarView(
            identifier=identifier,
            label=label,
            degree=degree,
            certificate=certificate_of(u),
            neighbors=tuple(
                (neighbor_id, neighbor_label, certificate_of(w))
                for neighbor_id, neighbor_label, w in neighbor_statics
            ),
        )

    # ------------------------------------------------------------------
    # Fallback paths (generic machines)
    # ------------------------------------------------------------------
    def _local_view(self, u: int, state: "CodedState") -> LocalView:
        """The :class:`LocalView` a gather machine computes on at node *u*.

        Exactly the view the simulated gather hands to ``compute``, rebuilt
        without the simulator.  The certificate-free fields, and per view
        identifier the *source* node whose certificates it carries, are
        built once per node (:meth:`_direct_static` or
        :meth:`_fixpoint_static`); per call only the sources' certificates
        are read off *state*'s codes.
        """
        static = self._static_views[u]
        if static is None:
            static = self._static_views[u] = (
                self._direct_static(u) if self.direct else self._fixpoint_static(u)
            )
        nodes, edges, labels, distances, sources = static
        alphabet = self.alphabet
        levels = state.codes
        return LocalView(
            center=self.ids_list[u],
            radius=self.machine.radius,
            nodes=nodes,
            edges=edges,
            labels=labels,
            certificates=tuple(
                (identifier, tuple(alphabet[codes[v]] for codes in levels))
                for identifier, v in sources
            ),
            distances=distances,
        )

    def _direct_static(self, u: int) -> tuple:
        """The static view of *u* when identifiers are unique in its horizon.

        The view is the induced radius-``r`` ball (see
        :func:`~repro.machines.local_algorithm.gather_view`, the central
        oracle), and each identifier's source is the ball node carrying it.
        """
        ids_list = self.ids_list
        ball = self.balls[u]
        adjacency = self.adjacency
        inside = set(ball)
        return (
            frozenset(ids_list[v] for v in ball),
            frozenset(
                frozenset((ids_list[v], ids_list[w]))
                for v in ball
                for w in adjacency[v]
                if w > v and w in inside
            ),
            tuple(sorted((ids_list[v], self.labels[v]) for v in ball)),
            tuple(sorted((ids_list[v], d) for v, d in self._ball_distances(u).items())),
            tuple(sorted((ids_list[v], v) for v in ball)),
        )

    def _fixpoint_static(self, u: int) -> tuple:
        """The static view of *u* from the gather's identifier-keyed knowledge.

        With identifiers colliding inside the horizon, the simulated
        gather's tables can hold phantom entries, so they are replayed here:
        ``r + 1`` synchronous merge sweeps over *u*'s radius-``(r + 1)``
        ball, in which a node merges its neighbors' previous tables in the
        simulator's order (ascending identifier, ties by node index).  A
        table keeps, per identifier, the hop distance (the minimum over
        neighbors, plus one) and the source node whose label and
        certificates won (its own entry first, then the first neighbor
        holding the identifier), plus the identifier edges it learned.
        Which source wins depends on merge order only, never on
        certificate values, so the tables are certificate-free.
        """
        horizon = self.machine.radius + 1
        ids_list = self.ids_list
        adjacency = self.adjacency
        reach = [(x, d) for x, d in self._ball_distances(u).items() if d <= horizon]
        # Per node: (distance by identifier, source by identifier, edges).
        tables = {x: ({ids_list[x]: 0}, {ids_list[x]: x}, frozenset()) for x, _ in reach}
        for sweep in range(1, horizon + 1):
            # Only tables within horizon - sweep of u are read after this sweep.
            reach = [(x, d) for x, d in reach if d <= horizon - sweep]
            merged = {}
            for x, _ in reach:
                distance, source, edges = tables[x]
                distance, source, edges = dict(distance), dict(source), set(edges)
                own = ids_list[x]
                order = sorted(adjacency[x], key=lambda w: identifier_key(ids_list[w]))
                for v in order:
                    v_distance, v_source, v_edges = tables[v]
                    edges.add(frozenset((own, ids_list[v])))
                    edges |= v_edges
                    for identifier, hops in v_distance.items():
                        hops += 1
                        known = distance.get(identifier)
                        if known is None:
                            distance[identifier] = hops
                            source[identifier] = v_source[identifier]
                        elif hops < known:
                            distance[identifier] = hops
                merged[x] = (distance, source, edges)
            tables = merged
        distance, source, edges = tables[u]
        radius = self.machine.radius
        in_range = {identifier for identifier, hops in distance.items() if hops <= radius}
        labels = self.labels
        return (
            frozenset(in_range),
            frozenset(edge for edge in edges if edge <= in_range),
            tuple(sorted((identifier, labels[source[identifier]]) for identifier in in_range)),
            tuple(sorted((identifier, distance[identifier]) for identifier in in_range)),
            tuple(sorted((identifier, source[identifier]) for identifier in in_range)),
        )

    def _simulate(self, u: int, state: "CodedState") -> bool:
        """Node *u*'s verdict from a simulator run on its induced ball subgraph.

        Nothing beyond the ball can reach *u* within the machine's round
        bound, so the run on the ball subgraph decides *u*.  When the ball
        is the whole graph, the one run decides every node: all verdicts
        are harvested into the memo (and the canonical cache).
        """
        self.simulator_runs += 1
        ball = self.balls[u]
        nodes = self.nodes
        whole = len(ball) == self.n
        subgraph = self.graph if whole else self._ball_subgraphs[u]
        if subgraph is None:
            subgraph = self.graph.induced_subgraph([nodes[v] for v in ball])
            self._ball_subgraphs[u] = subgraph
        alphabet = self.alphabet
        assignments = [{nodes[v]: alphabet[codes[v]] for v in ball} for codes in state.codes]
        outputs = execute(self.machine, subgraph, self.ids, assignments).outputs
        if whole:
            keys, levels, canonical = state.keys, state.levels, self.canonical
            for v, node in enumerate(nodes):
                verdict = verdict_of(outputs[node])
                self._memo_put(v, (keys[v] << 5) | levels, verdict)
                if canonical is not None:
                    canonical.put(self.canonical_key_state(v, state), verdict)
        return verdict_of(outputs[nodes[u]])

    def memo_info(self) -> Dict[str, Optional[int]]:
        """Hit/miss/eviction counters and occupancy of the shared verdict memo."""
        return {
            "size": self.memo_entries,
            "maxsize": self.memo_cap,
            "hits": self.memo_hits,
            "misses": self.memo_misses,
            "evictions": self.memo_evictions,
            "invalidations": self.memo_invalidations,
        }

    @property
    def path(self) -> str:
        """How memo misses are filled: ``kernel`` (a compiled rule),
        ``direct`` or ``fixpoint`` (a gather's ``compute`` on a rebuilt
        view) or ``simulate`` (a simulator run on the ball subgraph)."""
        if self.rule is not None:
            return "kernel"
        if self.direct:
            return "direct"
        return "fixpoint" if self._gather else "simulate"

    def __repr__(self) -> str:
        return (
            f"CompiledInstance(nodes={self.n}, radius={self.radius}, path={self.path}, "
            f"alphabet={len(self.alphabet)}, shift={self.shift}, memo={self.memo_entries})"
        )


class CodedState:
    """A mutable integer-coded certificate assignment with incremental keys.

    ``codes[level][v]`` is node ``v``'s certificate code at *level*, and
    ``keys[v]`` the packed restriction key of ``v``'s ball (the per-node
    memo key).  :meth:`set_code` applies a single-node delta and updates
    exactly the affected packed keys, so no key is ever rebuilt from
    scratch on the game's hot path.
    """

    __slots__ = ("instance", "levels", "codes", "keys", "generation", "deps")

    def __init__(self, instance: CompiledInstance, levels: int) -> None:
        self.instance = instance
        self.levels = levels
        n = instance.n
        if levels > 31:
            # The memo packs the levels count into 5 low key bits.
            raise ValueError("at most 31 quantifier levels are supported")
        self.codes: List[List[int]] = [[0] * n for _ in range(levels)]
        self.keys: List[int] = [0] * n
        self.generation = instance.generation
        #: Cached per-level ``(dependent, shift amount)`` tables, built on
        #: first :meth:`set_code` -- the bitset search paths never assign
        #: through the state, so they never pay for these.
        self.deps: Optional[List[List[Tuple[Tuple[int, int], ...]]]] = None

    def sync(self) -> None:
        """Resynchronize after an instance rebase or rewire.

        An instance's codes never change meaning, so only the packed keys
        are recomputed.
        """
        instance = self.instance
        if self.generation == instance.generation:
            return
        self.generation = instance.generation
        self.deps = None
        shift = instance.shift
        keys = []
        for u in range(instance.n):
            ball = instance.balls[u]
            ball_size = len(ball)
            key = 0
            for level in range(self.levels):
                codes = self.codes[level]
                base = level * ball_size
                for position, v in enumerate(ball):
                    key |= codes[v] << ((base + position) * shift)
            keys.append(key)
        self.keys = keys

    def load_level(self, level: int, assignment: Mapping[Node, str]) -> None:
        """Assign a whole level from a certificate dict (absent nodes carry "")."""
        instance = self.instance
        codes = [instance.intern(assignment.get(u, "")) for u in instance.nodes]
        self.sync()  # interning may have rebased
        for v, code in enumerate(codes):
            self.set_code(level, v, code)

    def set_code(self, level: int, v: int, code: int) -> None:
        """Assign ``kappa[level][v] = code``, updating dependent packed keys."""
        codes = self.codes[level]
        old = codes[v]
        if old == code:
            return
        codes[v] = code
        delta = code - old
        keys = self.keys
        deps = self.deps
        if deps is None:
            instance = self.instance
            deps = self.deps = [
                instance.dep_shifts(level) for level in range(self.levels)
            ]
        for u, amount in deps[level][v]:
            keys[u] += delta << amount

    def __repr__(self) -> str:
        return f"CodedState(levels={self.levels}, nodes={self.instance.n})"


class CompiledGameEngine:
    """The certificate-game solver running entirely on a compiled instance.

    Same API and enumeration order as the exhaustive solver
    (``eve_wins`` / ``sigma_value`` / ``pi_value`` / ``winning_first_move``),
    but every internal structure is coded: candidate certificates are
    integer codes materialized from the spaces, level enumeration is a
    delta odometer on a :class:`CodedState`, and the innermost level is
    solved by pruned search (bitset masks for pairwise rules, packed-key
    memo lookups otherwise).

    An engine holds no game values: each query is solved afresh, and only
    the instance's per-node verdict memo carries over between queries.
    Games that should share that memo -- Sigma and Pi, other spaces over
    the same ``(machine, graph, ids)`` -- pass one *instance* to each
    engine.
    """

    def __init__(
        self,
        machine: NodeMachine,
        graph: LabeledGraph,
        ids: Mapping[Node, str],
        spaces: Sequence[CertificateSpace],
        instance: Optional[CompiledInstance] = None,
    ) -> None:
        self.machine = machine
        self.graph = graph
        self.ids: Dict[Node, str] = dict(ids)
        self.spaces: List[CertificateSpace] = list(spaces)
        compiled = instance if instance is not None else compile_instance(machine, graph, ids)
        self.compiled = compiled
        self.nodes: List[Node] = list(graph.nodes)
        #: Search positions the pairwise bitset search killed outright with
        #: an empty viability mask (whole code-blocks discarded at once).
        self.bitset_prunes = 0
        #: Per level, per node index: candidate certificate codes, in the
        #: reference solver's enumeration order.
        self._candidate_codes: List[List[List[int]]] = [
            compiled.candidate_codes(materialize_space(space, graph, self.ids))
            for space in self.spaces
        ]
        #: Per level, per node: the candidate codes as one packed bitmask;
        #: plus the vacuity tables gating the quantifier collapse.  Built
        #: lazily on first use -- only the pairwise mask searches read the
        #: masks, and only ruled instances the vacuity tables.
        self._candidate_masks: Optional[List[List[int]]] = None
        self._level_has_empty: Optional[List[bool]] = None
        self._nonempty_below: Optional[List[bool]] = None
        self._state = compiled.new_state(len(self.spaces))
        self._state.sync()
        # checkable_at[p]: node indices whose ball is contained in 0..p (the
        # innermost backtracking search checks them as soon as p is set).
        self._checkable_at: List[List[int]] = [[] for _ in range(compiled.n)]
        for u in range(compiled.n):
            self._checkable_at[compiled.balls[u][-1]].append(u)
        #: Per node: its graph neighbors with a smaller index (lazily built;
        #: the pairwise bitset search filters against exactly these).
        self._lower_neighbors: Optional[List[List[int]]] = None

    # ------------------------------------------------------------------
    # Game values (the exhaustive solver's API)
    # ------------------------------------------------------------------
    def eve_wins(
        self,
        prefix: Sequence[Quantifier],
        fixed: Optional[Sequence[Mapping[Node, str]]] = None,
    ) -> bool:
        """Whether Eve wins the game with the given quantifier prefix."""
        if len(self.spaces) != len(prefix):
            raise ValueError("there must be exactly one certificate space per quantifier")
        prefix = tuple(prefix)
        self._state.sync()
        fixed = list(fixed or [])
        for level, assignment in enumerate(fixed):
            self._state.load_level(level, assignment)
        return self._value(prefix, len(fixed))

    def sigma_value(self) -> bool:
        """Game value with Eve moving first (Sigma^lp membership)."""
        return self.eve_wins(sigma_prefix(len(self.spaces)))

    def pi_value(self) -> bool:
        """Game value with Adam moving first (Pi^lp membership)."""
        return self.eve_wins(pi_prefix(len(self.spaces)))

    def winning_first_move(self, prefix: Sequence[Quantifier]) -> Optional[Dict[Node, str]]:
        """A winning first move for the owner of the first quantifier, if any.

        Enumeration order matches the reference solver's, so both return
        the same move.
        """
        if not prefix:
            raise ValueError("the game must have at least one quantifier")
        if len(self.spaces) != len(prefix):
            raise ValueError("there must be exactly one certificate space per quantifier")
        prefix = tuple(prefix)
        self._state.sync()
        alphabet = self.compiled.alphabet
        level_codes = self._state.codes[0] if self.spaces else None
        for _ in self._enumerate_level(0):
            value = self._value(prefix, 1)
            if prefix[0] is Quantifier.EXISTS and value:
                return {u: alphabet[level_codes[i]] for i, u in enumerate(self.nodes)}
            if prefix[0] is Quantifier.FORALL and not value:
                return {u: alphabet[level_codes[i]] for i, u in enumerate(self.nodes)}
        return None

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _enumerate_level(self, level: int) -> Iterator[None]:
        """Odometer enumeration of one level, in ``itertools.product`` order.

        Each step applies single-node deltas to the coded state instead of
        materializing an assignment dict; yields once per combination.
        """
        candidates = self._candidate_codes[level]
        if any(not node_candidates for node_candidates in candidates):
            return
        state = self._state
        n = len(candidates)
        positions = [0] * n
        for v in range(n):
            state.set_code(level, v, candidates[v][0])
        while True:
            yield None
            v = n - 1
            while v >= 0 and positions[v] == len(candidates[v]) - 1:
                positions[v] = 0
                state.set_code(level, v, candidates[v][0])
                v -= 1
            if v < 0:
                return
            positions[v] += 1
            state.set_code(level, v, candidates[v][positions[v]])

    def _value(self, prefix: Tuple[Quantifier, ...], depth: int) -> bool:
        if depth == len(prefix):
            return self.compiled.accepts_state(self._state)
        quantifier = prefix[depth]
        if depth == len(prefix) - 1:
            return self._innermost(quantifier, depth)
        if self._collapsible(depth):
            return self._collapsed_value(quantifier, depth)
        if quantifier is Quantifier.EXISTS:
            return any(self._value(prefix, depth + 1) for _ in self._enumerate_level(depth))
        return all(self._value(prefix, depth + 1) for _ in self._enumerate_level(depth))

    def _candidate_mask_table(self) -> List[List[int]]:
        masks = self._candidate_masks
        if masks is None:
            masks = self._candidate_masks = [
                [mask_of_codes(codes) for codes in level_candidates]
                for level_candidates in self._candidate_codes
            ]
        return masks

    def _vacuity_tables(self) -> Tuple[List[bool], List[bool]]:
        """Per level: has-empty-candidate-list; per depth: all-deeper-nonempty."""
        has_empty = self._level_has_empty
        if has_empty is None:
            has_empty = self._level_has_empty = [
                any(not codes for codes in level_candidates)
                for level_candidates in self._candidate_codes
            ]
            nonempty_below = [True] * len(self.spaces)
            clear = True
            for level in range(len(self.spaces) - 1, -1, -1):
                nonempty_below[level] = clear
                clear = clear and not has_empty[level]
            self._nonempty_below = nonempty_below
        return has_empty, self._nonempty_below

    def _collapsible(self, depth: int) -> bool:
        """Whether the subtree below *depth* cannot change the leaf verdict.

        True when the instance has a usable rule reading a level ``<= depth``
        (so every leaf verdict is already determined once *depth* is
        assigned) *and* no deeper level has an empty candidate list (an
        empty level makes a FORALL below vacuously true regardless of the
        verdict, so collapsing would be unsound).
        """
        rule = self.compiled._usable_rule(len(self.spaces))
        if rule is None or rule.level > depth:
            return False
        return self._vacuity_tables()[1][depth]

    def _collapsed_value(self, quantifier: Quantifier, depth: int) -> bool:
        """The value at *depth* without enumerating the irrelevant subtree.

        With the leaf verdict a function of the rule's level alone, the
        quantifiers below *depth* quantify over a constant: the value at
        *depth* is the innermost search on *depth* itself (when the rule
        reads exactly this level) or the already-determined unanimity
        verdict (when the rule's level is above).  Empty candidate lists at
        *depth* keep the reference solver's vacuity semantics.
        """
        rule = self.compiled.rule
        if rule.level == depth:
            return self._innermost(quantifier, depth)
        if self._vacuity_tables()[0][depth]:
            return quantifier is Quantifier.FORALL
        return self.compiled.accepts_state(self._state)

    # ------------------------------------------------------------------
    # Innermost level: pruned search on coded state
    # ------------------------------------------------------------------
    def _innermost(self, quantifier: Quantifier, level: int) -> bool:
        candidates = self._candidate_codes[level]
        if any(not node_candidates for node_candidates in candidates):
            # No assignment exists at all: the existential player is stuck,
            # the universal statement is vacuously true.
            return quantifier is Quantifier.FORALL
        compiled = self.compiled
        rule = compiled._usable_rule(self._state.levels)
        if rule is not None and rule.level == level:
            kernel = compiled.bitset_kernel()
            if kernel is not None:
                if quantifier is Quantifier.EXISTS:
                    return self._exists_bitset_pairwise(level, kernel)
                return self._forall_bitset_pairwise(level, kernel)
        if quantifier is Quantifier.EXISTS:
            return self._exists_accepting(level, 0)
        return self._forall_accepting(level)

    def _lower_neighbor_lists(self) -> List[List[int]]:
        lower = self._lower_neighbors
        if lower is None:
            lower = [[w for w in row if w < u] for u, row in enumerate(self.compiled.adjacency)]
            self._lower_neighbors = lower
        return lower

    def _exists_bitset_pairwise(self, level: int, kernel) -> bool:
        """Backtracking search over viability *masks* (pairwise rules).

        At each position the acceptable codes are one integer:
        ``own & candidates & AND(pair masks of already-assigned neighbors)``.
        Whole code-blocks die in the intersections before anything is
        assigned, and the loop maintains nothing but a scratch code list --
        no packed keys, no memo traffic, no per-candidate predicate calls.
        Sound because a pairwise leaf accepts iff every node's ``own_ok``
        and every edge's (mutual) ``pair_ok`` hold: the filters enforce
        exactly those constraints over the assigned prefix, so reaching
        position ``n`` is acceptance and a dead mask is a refutation.
        """
        compiled = self.compiled
        n = compiled.n
        if n == 0:
            return True
        codes = list(self._state.codes[compiled.rule.level])
        labels = compiled.labels
        own_masks = kernel.own_masks
        cand_masks = self._candidate_mask_table()[level]
        lower = self._lower_neighbor_lists()
        uniform = kernel.uniform
        has_pair = kernel.has_pair
        pair_mask = kernel.pair_mask
        pair_uniform = kernel._pair_uniform
        build_uniform = kernel.pair_mask_uniform
        masks = [0] * n
        masks[0] = own_masks[0] & cand_masks[0]
        position = 0
        while True:
            m = masks[position]
            if m:
                low = m & -m
                masks[position] = m ^ low
                codes[position] = low.bit_length() - 1
                position += 1
                if position == n:
                    return True
                viable = own_masks[position] & cand_masks[position]
                if viable and has_pair:
                    if uniform:
                        for w in lower[position]:
                            pm = pair_uniform[codes[w]]
                            if pm is None:
                                pm = build_uniform(codes[w])
                            viable &= pm
                            if not viable:
                                break
                    else:
                        label = labels[position]
                        for w in lower[position]:
                            viable &= pair_mask(label, labels[w], codes[w])
                            if not viable:
                                break
                if not viable:
                    self.bitset_prunes += 1
                masks[position] = viable
            else:
                position -= 1
                if position < 0:
                    return False

    def _forall_bitset_pairwise(self, level: int, kernel) -> bool:
        """Per-ball universal check as mask comparisons (pairwise rules).

        A node rejects under *some* ball assignment iff some neighbor-code
        combination leaves a candidate own-code outside the intersection of
        its pair masks -- one subset test per combination instead of one
        verdict per ``(own code, combination)`` pair.  Mutual masks are
        equivalent here: any one-directional violation is caught in the
        offending endpoint's own iteration, exactly as in the reference
        per-ball decomposition.
        """
        compiled = self.compiled
        candidates = self._candidate_codes[level]
        cand_masks = self._candidate_mask_table()[level]
        own_masks = kernel.own_masks
        labels = compiled.labels
        adjacency = compiled.adjacency
        has_pair = kernel.has_pair
        uniform = kernel.uniform
        for u in range(compiled.n):
            cand = cand_masks[u]
            if cand & ~own_masks[u]:
                return False
            if not has_pair:
                continue
            neighbors = adjacency[u]
            if not neighbors:
                continue
            label = labels[u]
            rows: List[List[int]] = []
            for w in neighbors:
                row = [
                    kernel.pair_mask_uniform(cw)
                    if uniform
                    else kernel.pair_mask(label, labels[w], cw)
                    for cw in candidates[w]
                ]
                # Distinct masks only: equal masks yield equal verdicts.
                rows.append(list(dict.fromkeys(row)))
            positions = [0] * len(rows)
            while True:
                allowed = cand
                rejected = False
                for i, row in enumerate(rows):
                    allowed &= row[positions[i]]
                    if cand & ~allowed:
                        rejected = True
                        break
                if rejected:
                    return False
                i = len(rows) - 1
                while i >= 0 and positions[i] == len(rows[i]) - 1:
                    positions[i] = 0
                    i -= 1
                if i < 0:
                    break
                positions[i] += 1
        return True

    def _exists_accepting(self, level: int, position: int) -> bool:
        """Backtracking search for an accepting assignment, one code at a time.

        Certificates are chosen node by node (graph order, candidate order);
        as soon as all of a node's ball is assigned its verdict is checked,
        and the branch is pruned on the first rejection.  Each step is a
        single ``set_code`` delta plus packed-key memo lookups.  This is the
        generic search, for star-rule and rule-less machines.
        """
        compiled = self.compiled
        if position == compiled.n:
            return True
        state = self._state
        checkable = self._checkable_at[position]
        memo_nodes = compiled.memo_nodes
        keys = state.keys
        levels = state.levels
        set_code = state.set_code
        for code in self._candidate_codes[level][position]:
            set_code(level, position, code)
            accepted = True
            for u in checkable:
                # Inlined memo fast path (node_verdict_state, minus a call).
                verdict = memo_nodes[u].get((keys[u] << 5) | levels, MISSING)
                if verdict is MISSING:
                    verdict = compiled.node_verdict_state(u, state)
                else:
                    compiled.memo_hits += 1
                if not verdict:
                    accepted = False
                    break
            if accepted and self._exists_accepting(level, position + 1):
                return True
        return False

    def _forall_accepting(self, level: int) -> bool:
        """Whether every innermost assignment makes every node accept.

        Per-ball decomposition: a rejecting leaf exists iff some node
        rejects under some assignment of its ball alone (any completion
        outside the ball yields a full assignment with the same verdict, and
        completions exist because every candidate set is nonempty), so each
        ball's product is enumerated separately by a coded odometer --
        exponential in the ball size instead of the graph size.
        """
        compiled = self.compiled
        state = self._state
        candidates = self._candidate_codes[level]
        for u in range(compiled.n):
            ball = compiled.balls[u]
            ball_candidates = [candidates[v] for v in ball]
            positions = [0] * len(ball)
            for slot, v in enumerate(ball):
                state.set_code(level, v, ball_candidates[slot][0])
            while True:
                if not compiled.node_verdict_state(u, state):
                    return False
                slot = len(ball) - 1
                while slot >= 0 and positions[slot] == len(ball_candidates[slot]) - 1:
                    positions[slot] = 0
                    state.set_code(level, ball[slot], ball_candidates[slot][0])
                    slot -= 1
                if slot < 0:
                    break
                positions[slot] += 1
                state.set_code(level, ball[slot], ball_candidates[slot][positions[slot]])
        return True

    # ------------------------------------------------------------------
    def __repr__(self) -> str:
        return (
            f"CompiledGameEngine(levels={len(self.spaces)}, nodes={len(self.nodes)}, "
            f"compiled={self.compiled!r})"
        )


def compile_instance(
    machine: NodeMachine, graph: LabeledGraph, ids: Mapping[Node, str]
) -> CompiledInstance:
    """A fresh :class:`CompiledInstance` of ``(machine, graph, ids)``.

    Nothing is shared behind the caller's back: a caller that wants several
    games to share one per-node verdict memo holds the instance and passes
    it to each engine (``CompiledGameEngine(..., instance=...)``), as
    :func:`repro.sweep.executor.evaluate_timed` does per sharing group.
    """
    return CompiledInstance(machine, graph, ids)
