"""Resolving wire queries to concrete game instances and their store keys.

A :class:`~repro.service.protocol.QueryRequest` names a game either as a
*scenario instance* (a registered sweep scenario plus an instance name or
index) or as an *inline spec* (arbiter x graph family x identifier scheme
x optional prefix override).  The resolver turns both into the same thing:
a :class:`~repro.engine.batch.GameInstance` plus its content-addressed
:func:`~repro.sweep.fingerprint.game_instance_key` -- the key every cache
tier below the protocol speaks.

Resolution is cached aggressively, and deliberately by *object identity*
where the engine layer shares by identity: one scenario's instance list is
built once and reused, inline specs are canonicalized and memoized, and
arbiter specs are constructed once per name.  Repeated queries therefore
hand the compute tier the *same* machine/graph/space objects, so coalesced
Sigma and Pi misses of one game share one compiled instance within a batch
(:func:`~repro.sweep.executor.evaluate_timed` groups by machine identity),
and :meth:`Resolver.scenario_keys` fingerprints each machine once per call.
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple

from repro.engine.batch import GameInstance
from repro.engine.caching import LRUCache
from repro.graphs import generators
from repro.graphs.labeled_graph import LabeledGraph
from repro.hierarchy.game import Quantifier
from repro.service.protocol import ProtocolError, QueryRequest
from repro.sweep.fingerprint import game_instance_key
from repro.sweep.scenarios import IDENTIFIER_SCHEMES, get_scenario


def _arbiter_factories() -> Dict[str, Callable[[], object]]:
    from repro.hierarchy.arbiters import (
        all_selected_spec,
        eulerian_spec,
        three_colorability_spec,
        two_colorability_spec,
    )

    return {
        "3-colorable": three_colorability_spec,
        "2-colorable": two_colorability_spec,
        "eulerian": eulerian_spec,
        "all-selected": all_selected_spec,
    }


#: family name -> (required params, optional params with defaults, builder,
#: node-count estimator).  The estimator runs on the raw integer parameters
#: *before* the builder, so an absurd size is rejected without materializing
#: anything.
_FAMILIES: Dict[
    str,
    Tuple[
        Tuple[str, ...],
        Dict[str, int],
        Callable[..., LabeledGraph],
        Callable[..., int],
    ],
] = {
    "cycle": (("n",), {}, lambda n: generators.cycle_graph(n), lambda n: n),
    "path": (("n",), {}, lambda n: generators.path_graph(n), lambda n: n),
    "complete": (("n",), {}, lambda n: generators.complete_graph(n), lambda n: n),
    "star": (("n",), {}, lambda n: generators.star_graph(n), lambda n: n + 1),
    "grid": (
        ("rows", "cols"),
        {},
        lambda rows, cols: generators.grid_graph(rows, cols),
        lambda rows, cols: rows * cols,
    ),
    "tree": (
        ("n",),
        {"seed": 0},
        lambda n, seed: generators.random_tree(n, seed=seed),
        lambda n, seed: n,
    ),
    "random-regular": (
        ("degree", "n"),
        {"seed": 0},
        lambda degree, n, seed: generators.random_regular_graph(degree, n, seed=seed),
        lambda degree, n, seed: n,
    ),
}

_SPEC_KEYS = frozenset(
    {"arbiter", "family", "scheme", "prefix", "n", "rows", "cols", "degree", "seed"}
)

#: Sanity bound on inline graph sizes: the decision procedure is exponential
#: in certificate choices, so an absurd request must be rejected at the
#: protocol boundary instead of wedging a compute worker.
MAX_INLINE_NODES = 64

#: Most resolved inline specs kept in the resolver's LRU.
MAX_INLINE_SPECS = 512


@dataclass
class ResolvedQuery:
    """A wire query lowered to engine terms."""

    instance: GameInstance
    key: str
    name: str


class Resolver:
    """Shared, thread-compatible query resolution with identity-stable caches."""

    def __init__(self) -> None:
        self._lock = threading.RLock()
        self._arbiters: Dict[str, object] = {}
        self._scenario_instances: Dict[str, List[GameInstance]] = {}
        self._scenario_index: Dict[str, Dict[str, int]] = {}
        self._scenario_keys: Dict[Tuple[str, int], str] = {}
        self._inline: LRUCache = LRUCache(MAX_INLINE_SPECS)

    # ------------------------------------------------------------------
    def resolve(self, request: QueryRequest) -> ResolvedQuery:
        """The game instance and store key a query addresses.

        Raises :class:`ProtocolError` (with the query's id attached) for
        anything the request got wrong; genuine resolver bugs propagate.
        """
        try:
            if request.spec is not None:
                return self._resolve_spec(request.spec)
            return self._resolve_scenario(request)
        except ProtocolError as error:
            if error.request_id is None:
                error.request_id = request.id
            raise

    def scenario_keys(self, name: str) -> List[str]:
        """Every store key of a scenario, in instance order (computed in bulk).

        This is the multi-key half of the store read path: the daemon hands
        the whole list to :meth:`VerdictStore.get_many
        <repro.sweep.store.VerdictStore.get_many>` on a scenario's first
        store lookup, so sibling instances are promoted in one round-trip
        instead of one ``get`` per query.
        """
        instances = self._scenario_list(name)
        keys: List[str] = []
        fingerprints: Dict[int, str] = {}  # one per distinct machine, this call only
        for index, instance in enumerate(instances):
            with self._lock:
                key = self._scenario_keys.get((name, index))
            if key is None:
                key = game_instance_key(instance, fingerprints)
                with self._lock:
                    self._scenario_keys[(name, index)] = key
            keys.append(key)
        return keys

    def invalidate(self, scenario: Optional[str] = None) -> None:
        """Drop cached resolutions (all of them, or one scenario's)."""
        with self._lock:
            if scenario is None:
                self._scenario_instances.clear()
                self._scenario_index.clear()
                self._scenario_keys.clear()
                self._inline.clear()
                self._arbiters.clear()
                return
            self._scenario_instances.pop(scenario, None)
            self._scenario_index.pop(scenario, None)
            for key in [k for k in self._scenario_keys if k[0] == scenario]:
                del self._scenario_keys[key]

    # ------------------------------------------------------------------
    # Scenario instances
    # ------------------------------------------------------------------
    def _scenario_list(self, name: str) -> List[GameInstance]:
        with self._lock:
            instances = self._scenario_instances.get(name)
            if instances is not None:
                return instances
        try:
            scenario = get_scenario(name)
        except KeyError as error:
            raise ProtocolError("unknown-scenario", str(error.args[0])) from None
        built = scenario.instances()
        with self._lock:
            # First build wins, so every resolution shares one object set.
            return self._scenario_instances.setdefault(name, built)

    def _resolve_scenario(self, request: QueryRequest) -> ResolvedQuery:
        name = request.scenario
        assert name is not None
        instances = self._scenario_list(name)
        if request.index is not None:
            index = request.index
            if not 0 <= index < len(instances):
                raise ProtocolError(
                    "unknown-instance",
                    f"scenario {name!r} has {len(instances)} instances; "
                    f"index {index} is out of range",
                )
        else:
            with self._lock:
                name_map = self._scenario_index.get(name)
                if name_map is None:
                    name_map = {
                        instance.name: position
                        for position, instance in enumerate(instances)
                    }
                    self._scenario_index[name] = name_map
            index = name_map.get(request.instance, -1)
            if index < 0:
                raise ProtocolError(
                    "unknown-instance",
                    f"scenario {name!r} has no instance named {request.instance!r}",
                )
        instance = instances[index]
        with self._lock:
            key = self._scenario_keys.get((name, index))
        if key is None:
            key = game_instance_key(instance)
            with self._lock:
                self._scenario_keys[(name, index)] = key
        return ResolvedQuery(
            instance=instance,
            key=key,
            name=instance.name or f"{name}[{index}]",
        )

    # ------------------------------------------------------------------
    # Inline specs
    # ------------------------------------------------------------------
    def _resolve_spec(self, spec: Mapping[str, Any]) -> ResolvedQuery:
        canonical = self._canonical_spec(spec)
        token = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
        with self._lock:
            cached = self._inline.get(token)
        if cached is not None:
            return cached
        resolved = self._build_spec(canonical)
        with self._lock:
            self._inline.put(token, resolved)
        return resolved

    def _canonical_spec(self, spec: Mapping[str, Any]) -> Dict[str, Any]:
        unknown = sorted(set(spec) - _SPEC_KEYS)
        if unknown:
            raise ProtocolError(
                "bad-spec",
                f"unknown spec fields {unknown}; accepted: {sorted(_SPEC_KEYS)}",
            )
        arbiter = spec.get("arbiter")
        if not isinstance(arbiter, str):
            raise ProtocolError("bad-spec", "spec.arbiter must be a string")
        family = spec.get("family")
        if not isinstance(family, str):
            raise ProtocolError("bad-spec", "spec.family must be a string")
        if family not in _FAMILIES:
            raise ProtocolError(
                "unknown-family",
                f"unknown graph family {family!r}; known: {sorted(_FAMILIES)}",
            )
        required, optional, _, estimate_nodes = _FAMILIES[family]
        canonical: Dict[str, Any] = {"arbiter": arbiter, "family": family}
        for param in required:
            value = spec.get(param)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError(
                    "bad-spec", f"family {family!r} requires integer parameter {param!r}"
                )
            canonical[param] = value
        for param, default in optional.items():
            value = spec.get(param, default)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ProtocolError("bad-spec", f"spec.{param} must be an integer")
            canonical[param] = value
        # Bound the size BEFORE building: the resolver runs on the daemon's
        # event loop and some builders (complete graphs) are quadratic, so
        # an absurd request must never reach a generator.
        estimated = estimate_nodes(
            **{param: canonical[param] for param in (*required, *optional)}
        )
        if estimated > MAX_INLINE_NODES:
            raise ProtocolError(
                "bad-spec",
                f"inline graphs are limited to {MAX_INLINE_NODES} nodes "
                f"(requested ~{estimated})",
            )
        scheme = spec.get("scheme", "small")
        if scheme not in IDENTIFIER_SCHEMES:
            raise ProtocolError(
                "unknown-scheme",
                f"unknown identifier scheme {scheme!r}; known: {sorted(IDENTIFIER_SCHEMES)}",
            )
        canonical["scheme"] = scheme
        prefix = spec.get("prefix")
        if prefix is not None:
            if not isinstance(prefix, str) or any(ch not in "EA" for ch in prefix):
                raise ProtocolError(
                    "bad-spec", "spec.prefix must be a string over 'E' and 'A'"
                )
            canonical["prefix"] = prefix
        return canonical

    def _arbiter_spec(self, name: str) -> object:
        with self._lock:
            spec = self._arbiters.get(name)
            if spec is not None:
                return spec
        factories = _arbiter_factories()
        if name not in factories:
            raise ProtocolError(
                "unknown-arbiter",
                f"unknown arbiter {name!r}; known: {sorted(factories)}",
            )
        built = factories[name]()
        with self._lock:
            return self._arbiters.setdefault(name, built)

    def _build_spec(self, canonical: Mapping[str, Any]) -> ResolvedQuery:
        arbiter = self._arbiter_spec(canonical["arbiter"])
        family = canonical["family"]
        required, optional, builder, _ = _FAMILIES[family]
        params = {param: canonical[param] for param in (*required, *optional)}
        try:
            graph = builder(**params)
        except (ValueError, KeyError) as error:
            raise ProtocolError("bad-spec", f"cannot build graph: {error}") from None
        if len(graph.nodes) > MAX_INLINE_NODES:
            # Belt and braces behind the pre-build estimate above.
            raise ProtocolError(
                "bad-spec",
                f"inline graphs are limited to {MAX_INLINE_NODES} nodes "
                f"(requested {len(graph.nodes)})",
            )
        ids = IDENTIFIER_SCHEMES[canonical["scheme"]](graph, arbiter.identifier_radius)
        prefix = arbiter.prefix()
        if "prefix" in canonical:
            prefix = [
                Quantifier.EXISTS if ch == "E" else Quantifier.FORALL
                for ch in canonical["prefix"]
            ]
            if len(prefix) != len(arbiter.spaces):
                raise ProtocolError(
                    "bad-spec",
                    f"prefix {canonical['prefix']!r} has {len(prefix)} quantifiers "
                    f"but arbiter {canonical['arbiter']!r} plays "
                    f"{len(arbiter.spaces)} certificate levels",
                )
        tag = "-".join(str(params[p]) for p in (*required, *optional))
        name = f"{canonical['arbiter']}|{family}{tag}|{canonical['scheme']}"
        if "prefix" in canonical:
            name += f"|{canonical['prefix']}"
        instance = GameInstance(
            machine=arbiter.machine,
            graph=graph,
            ids=ids,
            spaces=list(arbiter.spaces),
            prefix=prefix,
            name=name,
        )
        return ResolvedQuery(instance=instance, key=game_instance_key(instance), name=name)
