"""Game-instance descriptions and the keys under which instances share state.

The separations, the locality comparison, the sweeps and the online
service all ask the same shape of question many times over: *for each of
these graphs (or identifier assignments, or properties), who wins the
game?*  A :class:`GameInstance` describes one such question;
:func:`engine_sharing_key` names the instances that may share one
:class:`~repro.engine.compiled.CompiledGameEngine` (and hence its
transposition cache).  :func:`repro.sweep.executor.evaluate_timed` answers
a batch of instances under these keys.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence, Tuple

from repro.graphs.labeled_graph import LabeledGraph, Node
from repro.hierarchy.certificate_spaces import CertificateSpace
from repro.hierarchy.game import Quantifier
from repro.machines.interface import NodeMachine


class IdentityKey:
    """A hashable identity key that keeps its referents alive.

    Earlier versions keyed engine sharing by ``id(machine)`` and
    ``id(space)``.  Raw ``id`` values may alias: once an object is garbage
    collected its address can be handed to a brand-new object, so a caller
    that builds instances lazily (letting machines or spaces die between
    iterations) could silently inherit another instance's engine -- and its
    cached game values.  This wrapper hashes and compares by identity but
    holds strong references, so any object participating in a live cache key
    cannot be collected and its identity cannot be reused.
    """

    __slots__ = ("objects", "_hash")

    def __init__(self, *objects: object) -> None:
        self.objects = objects
        self._hash = hash(tuple(id(obj) for obj in objects))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, IdentityKey):
            return NotImplemented
        return len(self.objects) == len(other.objects) and all(
            mine is theirs for mine, theirs in zip(self.objects, other.objects)
        )

    def __repr__(self) -> str:
        return f"IdentityKey({', '.join(type(obj).__name__ for obj in self.objects)})"


@dataclass
class GameInstance:
    """One certificate-game question: a full ``(M, G, id, spaces, prefix)`` tuple.

    Attributes
    ----------
    machine:
        The arbiter deciding the leaves.
    graph, ids:
        The input graph and its identifier assignment.
    spaces:
        One certificate space per quantifier level.
    prefix:
        The quantifier prefix (``len(prefix) == len(spaces)``).
    name:
        Optional tag carried through to results and error messages.
    """

    machine: NodeMachine
    graph: LabeledGraph
    ids: Mapping[Node, str]
    spaces: Sequence[CertificateSpace]
    prefix: Sequence[Quantifier]
    name: str = ""


def engine_sharing_key(
    instance: GameInstance,
) -> Tuple[IdentityKey, LabeledGraph, Tuple[Tuple[Node, str], ...]]:
    """The key under which instances share a single game engine.

    Instances with equal keys agree on ``(machine, graph, ids, spaces)`` and
    may share one engine (and hence its transposition cache).  The machine
    and the spaces are compared by identity through :class:`IdentityKey`,
    which pins them in memory so the key cannot alias after garbage
    collection.  The identifiers are listed with their nodes, in node
    order: graphs compare equal whatever their node order, but an engine
    is positional in ``graph.nodes``, so the same identifier tuple in
    another node order is another input.
    """
    return (
        IdentityKey(instance.machine, *instance.spaces),
        instance.graph,
        tuple((u, instance.ids[u]) for u in instance.graph.nodes),
    )
